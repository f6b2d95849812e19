//! Answer verification, run after the timed phase so it costs the server
//! nothing: order, echoed ids, trailer counts, schedule feasibility,
//! reported cost, and Theorem 2.1 (FirstFit ≤ 4·OPT, checked against the
//! reported lower bound) wherever `auto` dispatched FirstFit.

use busytime_core::Schedule;
use busytime_instances::json::{self, Value};
use busytime_server::{BatchRecord, BatchSummary};

/// One request and what came back for it.
pub struct Exchange<'a> {
    /// The record lines sent.
    pub sent: &'a [String],
    /// The raw response text: one line per record, then the request's
    /// `BatchSummary` trailer (the stdin stream's comes from stderr).
    pub received: &'a str,
    /// How many leading records count toward `aggregate_gap`.
    pub gap_prefix: usize,
}

/// Verification totals.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Σ cost and Σ lower bound over the verified gap-prefix records.
    pub gap_records: usize,
    pub gap_cost: i64,
    pub gap_lower_bound: i64,
    /// The first few violations, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, records: usize, why: String) {
        self.failed += records;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn aggregate_gap(&self) -> f64 {
        BatchSummary::aggregate_gap(self.gap_cost, self.gap_lower_bound)
    }
}

/// Checks one response line against the record sent at `position`
/// (0-based within its request); returns the verified (cost, lower bound).
pub fn check_line(sent: &str, position: usize, received: &str) -> Result<(i64, i64), String> {
    let record = BatchRecord::parse(sent).map_err(|e| format!("unparseable request: {e}"))?;
    let id = record.id.as_deref().unwrap_or("");
    let value = json::parse(received).map_err(|e| format!("{id}: bad response line: {e}"))?;
    let line = value.get("line").and_then(Value::as_i64);
    if line != Some(position as i64 + 1) {
        return Err(format!(
            "{id}: out of order (line {line:?} at {})",
            position + 1
        ));
    }
    if value.get("id").and_then(Value::as_str) != Some(id) {
        return Err(format!("{id}: id not echoed"));
    }
    if !matches!(value.get("ok"), Some(Value::Bool(true))) {
        return Err(format!("{id}: error answer: {received}"));
    }
    let report = value.field("report").map_err(|e| format!("{id}: {e}"))?;
    let int = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("{id}: report lacks `{key}`"))
    };
    let (cost, lower_bound) = (int("cost")?, int("lower_bound")?);
    let assignment = report
        .get("assignment")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{id}: report lacks `assignment`"))?
        .iter()
        .map(|m| m.as_i64().and_then(|m| usize::try_from(m).ok()))
        .collect::<Option<Vec<usize>>>()
        .ok_or_else(|| format!("{id}: assignment is not a list of machines"))?;
    let inst = record.instance();
    let schedule = Schedule::from_assignment(assignment);
    schedule
        .validate(&inst)
        .map_err(|v| format!("{id}: infeasible schedule: {v:?}"))?;
    let actual = schedule.cost(&inst);
    if actual != cost {
        return Err(format!(
            "{id}: reported cost {cost}, schedule costs {actual}"
        ));
    }
    if lower_bound > cost {
        return Err(format!("{id}: lower bound {lower_bound} above cost {cost}"));
    }
    let first_fit = report.get("auto_choice").and_then(Value::as_str) == Some("first-fit");
    if first_fit && cost > 4 * lower_bound {
        return Err(format!(
            "{id}: FirstFit cost {cost} > 4 x lower bound {lower_bound}"
        ));
    }
    Ok((cost, lower_bound))
}

/// Verifies every exchange, spreading the per-line checks over two
/// threads.
pub fn verify(exchanges: &[Exchange]) -> Tally {
    let mut tally = Tally::default();
    // (exchange, position, response line)
    let mut units: Vec<(usize, usize, &str)> = Vec::new();
    for (e, ex) in exchanges.iter().enumerate() {
        tally.attempted += ex.sent.len();
        let mut lines: Vec<&str> = ex.received.lines().filter(|l| !l.is_empty()).collect();
        let trailer = match lines.pop() {
            Some(t) if !t.contains("\"line\":") => t,
            _ => {
                tally.fail(ex.sent.len(), "response has no summary trailer".into());
                continue;
            }
        };
        match BatchSummary::from_json_line(trailer) {
            Ok(s) if s.records == ex.sent.len() && s.solved == ex.sent.len() => {}
            Ok(s) => {
                let why = format!(
                    "trailer counts {} records / {} solved, sent {}",
                    s.records,
                    s.solved,
                    ex.sent.len()
                );
                tally.fail(ex.sent.len(), why);
                continue;
            }
            Err(e) => {
                tally.fail(ex.sent.len(), format!("bad trailer: {e}"));
                continue;
            }
        }
        if lines.len() > ex.sent.len() {
            let why = format!("{} answers to {} records", lines.len(), ex.sent.len());
            tally.fail(ex.sent.len(), why);
            continue;
        }
        if lines.len() < ex.sent.len() {
            let why = format!(
                "{} of {} answers missing",
                ex.sent.len() - lines.len(),
                ex.sent.len()
            );
            tally.fail(ex.sent.len() - lines.len(), why);
        }
        units.extend(lines.into_iter().enumerate().map(|(p, l)| (e, p, l)));
    }
    let check = |part: &[(usize, usize, &str)]| -> Vec<Result<(i64, i64), String>> {
        part.iter()
            .map(|&(e, p, l)| check_line(&exchanges[e].sent[p], p, l))
            .collect()
    };
    let (first, second) = units.split_at(units.len() / 2);
    let results = std::thread::scope(|scope| {
        let second = scope.spawn(|| check(second));
        let mut all = check(first);
        all.extend(second.join().expect("verifier thread panicked"));
        all
    });
    for (&(e, p, _), result) in units.iter().zip(results) {
        match result {
            Ok((cost, lb)) if p < exchanges[e].gap_prefix => {
                tally.gap_records += 1;
                tally.gap_cost += cost;
                tally.gap_lower_bound += lb;
            }
            Ok(_) => {}
            Err(why) => tally.fail(1, why),
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use busytime_core::solve::SolverRegistry;
    use busytime_server::{serve, ServeConfig};

    fn sent() -> Vec<String> {
        (0..4)
            .map(|i| {
                format!(
                    "{{\"id\": \"t{i}\", \"generator\": {{\"family\": \"uniform\", \"n\": 60, \"seed\": {i}}}}}"
                )
            })
            .collect()
    }

    /// The response lines for `sent`, then the summary trailer.
    fn answers(sent: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        let input = sent.join("\n");
        let registry = SolverRegistry::with_defaults();
        let config = ServeConfig::default();
        let summary = serve(input.as_bytes(), &mut out, &registry, &config).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines.push(summary.to_json_line());
        lines
    }

    fn tally(sent: &[String], lines: &[String]) -> Tally {
        let received = lines.join("\n");
        verify(&[Exchange {
            sent,
            received: &received,
            gap_prefix: usize::MAX,
        }])
    }

    #[test]
    fn clean_answers_pass_and_sum_the_gap() {
        let sent = sent();
        let t = tally(&sent, &answers(&sent));
        assert_eq!((t.attempted, t.failed), (4, 0), "{:?}", t.problems);
        assert!(t.gap_lower_bound > 0 && t.aggregate_gap() >= 1.0);
    }

    #[test]
    fn missing_and_out_of_order_lines_count_as_failed() {
        let sent = sent();
        let mut lines = answers(&sent);
        lines.remove(3);
        // the trailer still counts four records, so the request is whole
        // on the server side but one answer never arrived
        let t = verify(&[Exchange {
            sent: &sent[..],
            received: &lines.join("\n"),
            gap_prefix: 0,
        }]);
        assert_eq!((t.failed, t.failed_ratio()), (1, 0.25));

        let mut swapped = answers(&sent);
        swapped.swap(0, 1);
        assert_eq!(tally(&sent, &swapped).failed, 2);
    }

    #[test]
    fn a_wrong_or_missing_trailer_fails_the_whole_request() {
        let sent = sent();
        let mut lines = answers(&sent);
        let trailer = lines.pop().unwrap();
        assert_eq!(tally(&sent, &lines).failed, 4, "no trailer");
        lines.push(trailer.replacen("\"records\": 4", "\"records\": 3", 1));
        assert_eq!(tally(&sent, &lines).failed, 4, "short trailer");
    }

    #[test]
    fn a_tampered_cost_or_schedule_is_caught() {
        let sent = sent();
        let good = answers(&sent);
        let cost = good[0].split("\"cost\": ").nth(1).unwrap();
        let cost: String = cost.chars().take_while(char::is_ascii_digit).collect();
        let bumped = good[0].replacen(
            &format!("\"cost\": {cost}"),
            &format!("\"cost\": {}", cost.parse::<i64>().unwrap() + 1),
            1,
        );
        assert!(check_line(&sent[0], 0, &bumped)
            .unwrap_err()
            .contains("reported cost"));
        // every job on one machine overloads it (g = 3 < max overlap)
        let start = good[0].find("\"assignment\": [").unwrap() + 15;
        let end = start + good[0][start..].find(']').unwrap();
        let zeros = vec!["0"; 60].join(", ");
        let crammed = format!("{}{}{}", &good[0][..start], zeros, &good[0][end..]);
        assert!(check_line(&sent[0], 0, &crammed)
            .unwrap_err()
            .contains("infeasible"));
    }
}

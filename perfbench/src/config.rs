//! Workload parameters, read from `workloads.json` (compiled in, so the
//! file is the single record of what each workload sends and why).

use busytime_instances::json::{self, Value};
use busytime_instances::Family;

const WORKLOADS: &str = include_str!("../workloads.json");

/// How the benchmark talks to the program under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `busytime-cli serve`: one NDJSON stream over stdin/stdout.
    Serve,
    /// `busytime-cli listen --tcp`: one request per connection.
    Listen,
    /// `busytime-cli route --spawn N`: the listener shape behind the router.
    Route,
}

/// One size class of the large-record mix.
#[derive(Clone, Copy, Debug)]
pub struct MixClass {
    pub family: Family,
    pub n: usize,
    pub count: usize,
}

/// What the traffic generator produces.
#[derive(Clone, Debug)]
pub enum Traffic {
    /// Distinct small records on one stream.
    Stream {
        jobs: (usize, usize),
        families: Vec<Family>,
        inline_share: f64,
        window: usize,
        chunk: usize,
    },
    /// One large generator record per request, cycling through `mix`.
    Large { mix: Vec<MixClass> },
    /// Waves of small inline records, part drawn from a hot set.
    Waves {
        jobs: (usize, usize),
        families: Vec<Family>,
        wave: usize,
        hot_set: usize,
        hot_share: f64,
        healthz_every: usize,
    },
}

/// A workload: serving shape, traffic, and run-length floors.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub shape: Shape,
    pub workers: usize,
    pub clients: usize,
    /// `route --spawn N`: shard count (0 for other shapes).
    pub spawn: usize,
    pub traffic: Traffic,
    /// Requests the timed phase completes at least, whatever `--seconds`.
    pub min_requests: usize,
    /// Requests (by sequence index) whose records make up `aggregate_gap`.
    pub gap_requests: usize,
}

impl Workload {
    /// Records per request (a wave, or one record).
    pub fn records_per_request(&self) -> usize {
        match &self.traffic {
            Traffic::Waves { wave, .. } => *wave,
            _ => 1,
        }
    }

    /// Requests per generation cycle: the timed phase stops on a cycle
    /// boundary, so class shares of the large mix are exact.
    pub fn cycle(&self) -> usize {
        match &self.traffic {
            Traffic::Large { mix } => mix.iter().map(|c| c.count).sum(),
            Traffic::Stream { chunk, .. } => *chunk,
            Traffic::Waves { .. } => 1,
        }
    }
}

pub fn names() -> Vec<String> {
    match json::parse(WORKLOADS).expect("workloads.json parses") {
        Value::Object(map) => map.keys().cloned().collect(),
        _ => unreachable!("workloads.json is an object"),
    }
}

fn param<'a>(params: &'a Value, key: &str) -> Result<&'a Value, String> {
    params
        .get(key)
        .and_then(|p| p.get("value"))
        .ok_or_else(|| format!("workloads.json: missing param `{key}`"))
}

fn int(params: &Value, key: &str) -> Result<usize, String> {
    param(params, key)?
        .as_i64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("workloads.json: `{key}` must be a count"))
}

fn float(params: &Value, key: &str) -> Result<f64, String> {
    match param(params, key)? {
        Value::Int(v) => Ok(*v as f64),
        Value::Number(v) => Ok(*v),
        _ => Err(format!("workloads.json: `{key}` must be a number")),
    }
}

fn text<'a>(params: &'a Value, key: &str) -> Result<&'a str, String> {
    param(params, key)?
        .as_str()
        .ok_or_else(|| format!("workloads.json: `{key}` must be a string"))
}

fn range(params: &Value, key: &str) -> Result<(usize, usize), String> {
    let pair = param(params, key)?.as_array().unwrap_or(&[]);
    match pair {
        [lo, hi] => Ok((
            lo.as_i64().unwrap_or(0) as usize,
            hi.as_i64().unwrap_or(0) as usize,
        )),
        _ => Err(format!("workloads.json: `{key}` must be [lo, hi]")),
    }
}

fn families(params: &Value) -> Result<Vec<Family>, String> {
    param(params, "families")?
        .as_array()
        .unwrap_or(&[])
        .iter()
        .map(|f| f.as_str().unwrap_or("").parse())
        .collect()
}

/// Loads workload `name`.
pub fn load(name: &str) -> Result<Workload, String> {
    let all = json::parse(WORKLOADS).map_err(|e| format!("workloads.json: {e}"))?;
    let entry = all.get(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (expected one of: {})",
            names().join(", ")
        )
    })?;
    let params = entry.field("params").map_err(|e| e.to_string())?;
    // route-fanout borrows socket-mixed's traffic wholesale
    let traffic_params = match params.get("traffic") {
        Some(_) => {
            let from = text(params, "traffic")?;
            all.get(from)
                .and_then(|w| w.get("params"))
                .ok_or_else(|| format!("workloads.json: unknown traffic '{from}'"))?
        }
        None => params,
    };
    let shape = match text(params, "shape")? {
        "serve" => Shape::Serve,
        "listen" => Shape::Listen,
        "route" => Shape::Route,
        other => return Err(format!("workloads.json: unknown shape '{other}'")),
    };
    let traffic = if traffic_params.get("mix").is_some() {
        let mix = param(traffic_params, "mix")?
            .as_array()
            .unwrap_or(&[])
            .iter()
            .map(|c| {
                Ok(MixClass {
                    family: c
                        .get("family")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .parse()?,
                    n: c.get("n").and_then(Value::as_i64).unwrap_or(0) as usize,
                    count: c.get("count").and_then(Value::as_i64).unwrap_or(0) as usize,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Traffic::Large { mix }
    } else if traffic_params.get("wave").is_some() {
        Traffic::Waves {
            jobs: range(traffic_params, "jobs")?,
            families: families(traffic_params)?,
            wave: int(traffic_params, "wave")?,
            hot_set: int(traffic_params, "hot_set")?,
            hot_share: float(traffic_params, "hot_share")?,
            healthz_every: int(traffic_params, "healthz_every")?,
        }
    } else {
        Traffic::Stream {
            jobs: range(traffic_params, "jobs")?,
            families: families(traffic_params)?,
            inline_share: float(traffic_params, "inline_share")?,
            window: int(traffic_params, "window")?,
            chunk: int(traffic_params, "chunk")?,
        }
    };
    let (min_requests, gap_requests) = match traffic {
        Traffic::Waves { .. } => (
            int(traffic_params, "min_requests")?,
            int(traffic_params, "gap_requests")?,
        ),
        _ => (
            int(traffic_params, "min_records")?,
            int(traffic_params, "gap_records")?,
        ),
    };
    Ok(Workload {
        name: name.to_string(),
        shape,
        workers: match shape {
            Shape::Route => int(params, "spawn")? * int(params, "spawn_workers")?,
            _ => int(params, "workers")?,
        },
        clients: match traffic {
            Traffic::Stream { .. } => 1,
            _ => int(traffic_params, "clients")?,
        },
        spawn: match shape {
            Shape::Route => int(params, "spawn")?,
            _ => 0,
        },
        traffic,
        min_requests,
        gap_requests,
    })
}

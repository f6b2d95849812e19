//! Seeded NDJSON traffic. Every request is a pure function of the
//! benchmark seed and its sequence index, so the untraced run, the traced
//! replay and the verifier all see the same bytes.

use busytime_core::Instance;
use busytime_instances::{Family, GeneratorSpec};

use crate::config::{Traffic, Workload};

/// SplitMix64: tiny, seedable, and stable across toolchains.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A seed unique to (`seed`, `stream`, `index`).
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.next_u64();
    Rng::new(rng.next_u64() ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db)).next_u64()
}

const STREAM_RECORD: u64 = 1;
const STREAM_HOT: u64 = 2;
const STREAM_WAVE: u64 = 3;
const STREAM_CYCLE: u64 = 4;

fn inline_line(id: &str, inst: &Instance) -> String {
    let mut out = String::with_capacity(32 + inst.len() * 12);
    out.push_str("{\"id\": \"");
    out.push_str(id);
    out.push_str("\", \"instance\": {\"g\": ");
    out.push_str(&inst.g().to_string());
    out.push_str(", \"jobs\": [");
    for (i, job) in inst.jobs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("[{}, {}]", job.start, job.end));
    }
    out.push_str("]}}");
    out
}

fn generator_line(id: &str, spec: &GeneratorSpec) -> String {
    format!(
        "{{\"id\": \"{id}\", \"generator\": {{\"family\": \"{}\", \"n\": {}, \"g\": {}, \"seed\": {}, \"d\": {}}}}}",
        spec.family, spec.n, spec.g, spec.seed, spec.d
    )
}

/// A small record from one of `families` with a size in `jobs`, inline or
/// as a generator spec. Family, size and form are stratified by `slot`
/// (round-robin families, golden-ratio sizes), so every stretch of records
/// has the same mix whatever the seed; the seed picks the instances.
///
/// Laminar records are always inline: the spec's laminar generator
/// ignores `n` (a dozen jobs at its fixed depth, often repeating), so the
/// benchmark grows deeper trees and redraws until the size is in range.
fn small_record(
    id: &str,
    families: &[Family],
    jobs: (usize, usize),
    inline_share: f64,
    slot: u64,
    seed: u64,
) -> String {
    let fraction = |k: u64| (k as f64 * 0.618_033_988_749_894_9).fract();
    let round = slot / families.len() as u64;
    let mut spec = GeneratorSpec::new(families[(slot % families.len() as u64) as usize]);
    spec.n = jobs.0 + (fraction(round) * (jobs.1 - jobs.0 + 1) as f64) as usize;
    let mut rng = Rng::new(seed);
    spec.seed = rng.next_u64() >> 1;
    if spec.family == Family::Laminar {
        loop {
            let width = 8 * jobs.1 as i64;
            let inst = busytime_instances::laminar::random_laminar(width, 6, 4, spec.g, spec.seed);
            if (jobs.0..=jobs.1).contains(&inst.len()) {
                return inline_line(id, &inst);
            }
            spec.seed = rng.next_u64() >> 1;
        }
    }
    if fraction(round.wrapping_mul(7) + 3) < inline_share {
        inline_line(id, &spec.generate())
    } else {
        generator_line(id, &spec)
    }
}

/// The request generator of one workload and seed.
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// Inline lines of the hot set (wave traffic only).
    hot: Vec<String>,
}

impl Generator {
    pub fn new(workload: &Workload, seed: u64) -> Generator {
        let hot = match &workload.traffic {
            Traffic::Waves {
                hot_set,
                families,
                jobs,
                ..
            } => (0..*hot_set as u64)
                .map(|k| small_record("", families, *jobs, 1.0, k, derive(seed, STREAM_HOT, k)))
                .collect(),
            _ => Vec::new(),
        };
        Generator {
            workload: workload.clone(),
            seed,
            hot,
        }
    }

    /// The record lines of request `index` (one line unless the workload
    /// sends waves). Warm-up requests use their own index space, so they
    /// never collide with timed ones.
    pub fn request(&self, index: u64) -> Vec<String> {
        match &self.workload.traffic {
            Traffic::Stream {
                jobs,
                families,
                inline_share,
                ..
            } => {
                let seed = derive(self.seed, STREAM_RECORD, index);
                let id = format!("r{index}");
                vec![small_record(
                    &id,
                    families,
                    *jobs,
                    *inline_share,
                    index,
                    seed,
                )]
            }
            Traffic::Large { mix } => {
                let cycle: usize = mix.iter().map(|c| c.count).sum();
                let (round, slot) = (index / cycle as u64, (index % cycle as u64) as usize);
                let mut order: Vec<usize> = mix
                    .iter()
                    .enumerate()
                    .flat_map(|(i, c)| std::iter::repeat_n(i, c.count))
                    .collect();
                Rng::new(derive(self.seed, STREAM_CYCLE, round)).shuffle(&mut order);
                let class = mix[order[slot]];
                let mut spec = GeneratorSpec::new(class.family);
                spec.n = class.n;
                spec.seed = derive(self.seed, STREAM_RECORD, index) >> 1;
                vec![generator_line(&format!("L{index}"), &spec)]
            }
            Traffic::Waves {
                jobs,
                families,
                wave,
                hot_share,
                ..
            } => {
                let mut rng = Rng::new(derive(self.seed, STREAM_WAVE, index));
                let hot_count = (*wave as f64 * hot_share).round() as usize;
                let mut slots: Vec<bool> = (0..*wave).map(|i| i < hot_count).collect();
                rng.shuffle(&mut slots);
                slots
                    .iter()
                    .enumerate()
                    .map(|(j, &hot)| {
                        let id = format!("w{index}.{j}");
                        if hot {
                            let body = &self.hot[rng.range(0, self.hot.len() - 1)];
                            body.replacen("\"id\": \"\"", &format!("\"id\": \"{id}\""), 1)
                        } else {
                            let slot = index * *wave as u64 + j as u64;
                            small_record(&id, families, *jobs, 1.0, slot, rng.next_u64())
                        }
                    })
                    .collect()
            }
        }
    }

    /// The hot set as warm-up requests (wave traffic), so the timed phase
    /// starts with the cache's read path already populated.
    pub fn warmup(&self) -> Vec<Vec<String>> {
        let per = self.workload.records_per_request();
        match &self.workload.traffic {
            Traffic::Waves { .. } => self
                .hot
                .chunks(per)
                .enumerate()
                .map(|(w, chunk)| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, body)| {
                            body.replacen("\"id\": \"\"", &format!("\"id\": \"warm{w}.{j}\""), 1)
                        })
                        .collect()
                })
                .collect(),
            // the stream warms on its own first chunk; large records warm
            // with one small generator record
            Traffic::Stream { .. } => Vec::new(),
            Traffic::Large { .. } => {
                let mut spec = GeneratorSpec::new(Family::Uniform);
                spec.n = 1000;
                spec.seed = self.seed;
                vec![vec![generator_line("warm", &spec)]]
            }
        }
    }
}

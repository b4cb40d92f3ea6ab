//! The four standing workloads. All run at concurrency 8 under
//! serializable isolation; inputs come from `--seed` alone.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Wiki,
    Motd,
    Stacks,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// 25 % page creations, 15 % comments, 60 % renders.
    Wiki,
    /// 90 % reads.
    ReadHeavy,
    /// 90 % writes.
    WriteHeavy,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub app: AppKind,
    pub mix: MixKind,
    /// Requests at full size (`--scale 1`).
    pub requests: usize,
}

pub const CONCURRENCY: usize = 8;

/// Request counts are sized so one audit takes 40–90 ms on the 2-core
/// sandbox: the driver's time cap leaves about 20 s for a whole run, and
/// the sample counts are kept rather than the request counts (README,
/// "Sizes").
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wiki-mix",
        app: AppKind::Wiki,
        mix: MixKind::Wiki,
        requests: 600,
    },
    Workload {
        name: "motd-write-heavy",
        app: AppKind::Motd,
        mix: MixKind::WriteHeavy,
        requests: 400,
    },
    Workload {
        name: "stacks-read-heavy",
        app: AppKind::Stacks,
        mix: MixKind::ReadHeavy,
        requests: 1600,
    },
    Workload {
        name: "stacks-write-heavy",
        app: AppKind::Stacks,
        mix: MixKind::WriteHeavy,
        requests: 1400,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Requests at `scale`, never fewer than 8 (one concurrency window).
    pub fn requests_at(&self, scale: f64) -> usize {
        ((self.requests as f64 * scale).round() as usize).max(CONCURRENCY)
    }
}

/// One request of a workload, before the adapter turns it into the
/// program's request value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    MotdGet {
        day: &'static str,
    },
    MotdSet {
        day: &'static str,
        msg: String,
        user: String,
    },
    StacksReport {
        dump: String,
    },
    StacksCount {
        dump: String,
    },
    StacksList,
    WikiCreate {
        id: String,
        title: String,
        body: String,
    },
    WikiComment {
        page: String,
        text: String,
    },
    WikiRender {
        page: String,
    },
}

/// splitmix64: all of the benchmark's input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Requests are dealt in blocks of this many: the mix is exact over the
/// whole workload and nearly exact within every block, the order inside
/// a block is the seed's.
const BLOCK: usize = 40;

/// The category (index into `weights`) of each of `n` requests: at
/// every position the category furthest behind its share is dealt, so
/// every prefix holds each category's share to within one request; then
/// each block is shuffled by `rng`.
///
/// The repo's own generators draw every request independently, which
/// makes a workload's *structure* (how many distinct stack dumps exist,
/// how many wiki pages) a small-count random variable: advice size and
/// replay fuel then differ by 15–25 % between seeds, more than any
/// bound this benchmark gates on (README, "Inputs").
fn deal(weights: &[f64], n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut dealt = vec![0usize; weights.len()];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let behind = |c: usize| weights[c] * (i + 1) as f64 - dealt[c] as f64;
        let pick = (0..weights.len())
            .max_by(|&a, &b| behind(a).total_cmp(&behind(b)).then(b.cmp(&a)))
            .expect("a workload has at least one category");
        dealt[pick] += 1;
        out.push(pick);
    }
    for block in out.chunks_mut(BLOCK) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
    }
    out
}

const DAYS: [&str; 7] = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"];

impl Workload {
    /// The workload's requests at `requests` from `seed`. Mixes follow
    /// the paper (§6): MOTD and stacks 90/10 read or write heavy, one
    /// MOTD write in five to every day at once, one stack report in ten
    /// a new dump, one stack read in ten a listing, wiki 25 % page
    /// creations, 15 % comments, 60 % renders.
    pub fn ops(&self, requests: usize, seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed ^ 0x6b62_656e_6368);
        let write = match self.mix {
            MixKind::ReadHeavy => 0.1,
            MixKind::WriteHeavy => 0.9,
            MixKind::Wiki => 0.4,
        };
        match self.app {
            AppKind::Motd => {
                let weights = [1.0 - write, write * 0.8, write * 0.2];
                deal(&weights, requests, &mut rng)
                    .into_iter()
                    .enumerate()
                    .map(|(i, category)| {
                        let day = DAYS[rng.below(DAYS.len())];
                        if category == 0 {
                            return Op::MotdGet { day };
                        }
                        Op::MotdSet {
                            day: if category == 2 { "all" } else { day },
                            msg: format!(
                                "message #{i}: the quick brown fox jumps over the lazy dog; \
                                 scheduled maintenance window announcement with details #{i}"
                            ),
                            user: format!("user{}", i % 17),
                        }
                    })
                    .collect()
            }
            AppKind::Stacks => {
                let read = 1.0 - write;
                let weights = [write * 0.1, write * 0.9, read * 0.9, read * 0.1];
                let mut known: Vec<String> = Vec::new();
                deal(&weights, requests, &mut rng)
                    .into_iter()
                    .map(|category| match category {
                        0 | 1 if category == 0 || known.is_empty() => {
                            let fresh = known.len() + 1;
                            let dump = format!(
                                "panic: index out of bounds\n  at frame_{fresh}\n  at main_{}",
                                fresh % 7
                            );
                            known.push(dump.clone());
                            Op::StacksReport { dump }
                        }
                        1 => Op::StacksReport {
                            dump: known[rng.below(known.len())].clone(),
                        },
                        2 if !known.is_empty() => Op::StacksCount {
                            dump: known[rng.below(known.len())].clone(),
                        },
                        _ => Op::StacksList,
                    })
                    .collect()
            }
            AppKind::Wiki => {
                let weights = [0.25, 0.15, 0.60];
                let mut pages: Vec<String> = Vec::new();
                deal(&weights, requests, &mut rng)
                    .into_iter()
                    .enumerate()
                    .map(|(i, category)| {
                        if category == 0 || pages.is_empty() {
                            let created = pages.len() + 1;
                            let id = format!("page{created}");
                            pages.push(id.clone());
                            return Op::WikiCreate {
                                id,
                                title: format!("Title {created}"),
                                body: format!(
                                    "Lorem ipsum content for page {created}, revision {i}."
                                ),
                            };
                        }
                        let page = pages[rng.below(pages.len())].clone();
                        if category == 1 {
                            Op::WikiComment {
                                page,
                                text: format!("comment {i} — insightful remark"),
                            }
                        } else {
                            Op::WikiRender { page }
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(ops: &[Op], pred: impl Fn(&Op) -> bool) -> f64 {
        ops.iter().filter(|op| pred(op)).count() as f64 / ops.len() as f64
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for w in &WORKLOADS {
            assert_eq!(w.ops(200, 7), w.ops(200, 7), "{}", w.name);
            assert_ne!(w.ops(200, 7), w.ops(200, 8), "{}", w.name);
        }
    }

    #[test]
    fn mixes_are_exact_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let wiki = find("wiki-mix").unwrap().ops(600, seed);
            assert_eq!(share(&wiki, |op| matches!(op, Op::WikiCreate { .. })), 0.25);
            assert_eq!(
                share(&wiki, |op| matches!(op, Op::WikiComment { .. })),
                0.15
            );
            let motd = find("motd-write-heavy").unwrap().ops(400, seed);
            assert_eq!(share(&motd, |op| matches!(op, Op::MotdSet { .. })), 0.9);
            let reads = find("stacks-read-heavy").unwrap().ops(1600, seed);
            assert_eq!(
                share(&reads, |op| matches!(op, Op::StacksReport { .. })),
                0.1
            );
            let writes = find("stacks-write-heavy").unwrap().ops(1400, seed);
            assert_eq!(
                share(&writes, |op| matches!(op, Op::StacksReport { .. })),
                0.9
            );
            let distinct: std::collections::HashSet<&Op> = writes
                .iter()
                .filter(|op| matches!(op, Op::StacksReport { .. }))
                .collect();
            assert!(
                (125..=127).contains(&distinct.len()),
                "one report in ten is a new dump: {}",
                distinct.len()
            );
        }
    }

    #[test]
    fn every_prefix_holds_the_mix_to_within_a_block() {
        let ops = find("stacks-read-heavy").unwrap().ops(1600, 3);
        for end in (BLOCK..=ops.len()).step_by(BLOCK) {
            let writes = share(&ops[..end], |op| matches!(op, Op::StacksReport { .. }));
            assert!(
                (writes - 0.1).abs() <= 1.0 / end as f64 + 1e-12,
                "prefix {end}: {writes}"
            );
        }
    }
}

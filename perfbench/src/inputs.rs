//! Workload inputs, generated from the seed before anything is timed.
//!
//! The program under test only ever sees the bytes built here: request
//! bodies on the wire workloads, `ScanRequest`s on `batch-snapshot`.

use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scamdetect::{detect_platform, request_fingerprint};
use scamdetect_dataset::{ContractSource, Corpus, CorpusConfig};
use scamdetect_evm::proxy::make_erc1167;
use scamdetect_fleet::ring::mix;
use scamdetect_ir::Platform;
use scamdetect_obfuscate::{obfuscate_evm, ObfuscationLevel};
use scamdetect_serve::json::Json;
use std::collections::HashSet;

/// How a contract was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A generated EVM contract as the generator emitted it.
    Plain,
    /// An ERC-1167 minimal proxy with a random implementation address.
    Clone,
    /// A generated EVM contract run through the obfuscation pipeline.
    Obfuscated,
    /// A generated WASM module.
    Wasm,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Plain => "plain_evm",
            Family::Clone => "erc1167_clone",
            Family::Obfuscated => "obfuscated_evm",
            Family::Wasm => "wasm",
        }
    }
}

/// One contract the benchmark may send.
#[derive(Debug, Clone)]
pub struct Input {
    pub bytes: Vec<u8>,
    pub platform: Platform,
    pub family: Family,
    /// Obfuscation level (0 for untouched contracts).
    pub level: u8,
    /// The scanner's cache key for these bytes.
    pub key: (Platform, u64),
}

impl Input {
    fn new(bytes: Vec<u8>, family: Family, level: u8) -> Input {
        let platform = detect_platform(&bytes);
        let key = (platform, request_fingerprint(platform, &bytes));
        Input {
            bytes,
            platform,
            family,
            level,
            key,
        }
    }

    /// The `POST /scan` body a client sends for this contract.
    pub fn body(&self) -> String {
        format!(
            r#"{{"bytecode": "{}"}}"#,
            scamdetect_serve::wire::encode_hex(&self.bytes)
        )
    }
}

/// The inputs of a wire workload: every distinct contract, the set-up
/// warm-up order and the measured request order (a run sends a prefix
/// of `sequence`, as many requests as fit in its time).
pub struct WireInputs {
    pub inputs: Vec<Input>,
    pub bodies: Vec<String>,
    pub warmup: Vec<u32>,
    pub sequence: Vec<u32>,
    /// `true` for inputs whose skeleton the warm-up put in the cache.
    pub warm: Vec<bool>,
}

/// Every 20th `wire-hit` request is a never-seen skeleton: 95% hits.
pub const HIT_MISS_EVERY: usize = 20;

/// Master seed of one workload's generators, so workloads sharing a
/// `--seed` do not share inputs by accident.
fn derive(seed: u64, salt: u64, j: u64) -> u64 {
    mix(seed ^ salt ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn plain_corpus(seed: u64, size: usize, platform: Platform) -> Corpus {
    Corpus::generate(&CorpusConfig {
        size,
        seed,
        platform,
        ..CorpusConfig::default()
    })
}

fn clones(rng: &mut StdRng, count: usize) -> Vec<Input> {
    (0..count)
        .map(|_| {
            let addr: [u8; 20] = rng.random();
            Input::new(make_erc1167(&addr), Family::Clone, 0)
        })
        .collect()
}

/// An obfuscated variant of a generated EVM contract; `None` for
/// contracts without an assembly source.
fn variant(source: &ContractSource, level: u8, seed: u64) -> Option<Input> {
    let ContractSource::Evm(program) = source else {
        return None;
    };
    let (obfuscated, _) = obfuscate_evm(program, ObfuscationLevel::new(level), seed);
    let bytes = obfuscated.assemble().expect("obfuscated programs assemble");
    Some(Input::new(bytes, Family::Obfuscated, level))
}

/// Generates `count` variants in parallel over two threads (generation
/// is not timed, but it is wall time every run pays).
fn variants(
    corpus: &Corpus,
    count: usize,
    level_of: impl Fn(usize) -> u8 + Sync,
    salt: u64,
    seed: u64,
) -> Vec<Input> {
    let contracts = corpus.contracts();
    let make = |j: usize| {
        variant(
            &contracts[j % contracts.len()].source,
            level_of(j),
            derive(seed, salt, j as u64),
        )
        .expect("generated EVM contracts keep their assembly source")
    };
    let half = count / 2;
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| (half..count).map(make).collect::<Vec<_>>());
        let mut out: Vec<Input> = (0..half).map(make).collect();
        out.extend(upper.join().expect("generator thread"));
        out
    })
}

/// Keeps the inputs whose key is not yet in `seen`, in order.
fn unseen(candidates: Vec<Input>, seen: &mut HashSet<(Platform, u64)>) -> Vec<Input> {
    candidates
        .into_iter()
        .filter(|input| seen.insert(input.key))
        .collect()
}

fn finish(inputs: Vec<Input>, warmup: Vec<u32>, sequence: Vec<u32>) -> WireInputs {
    let mut warm = vec![false; inputs.len()];
    for &i in &warmup {
        warm[i as usize] = true;
    }
    let warm_keys: HashSet<_> = warmup.iter().map(|&i| inputs[i as usize].key).collect();
    for (flag, input) in warm.iter_mut().zip(&inputs) {
        *flag |= warm_keys.contains(&input.key);
    }
    WireInputs {
        bodies: inputs.iter().map(Input::body).collect(),
        inputs,
        warmup,
        sequence,
        warm,
    }
}

/// `wire-hit` / `routed-hit`: 600 plain EVM contracts plus 64 ERC-1167
/// clones, all warmed at set-up, and `fresh` never-seen level-1
/// variants, one in every [`HIT_MISS_EVERY`] requests.
pub fn wire_hit(seed: u64, fresh: usize) -> WireInputs {
    const PLAIN: usize = 600;
    const CLONES: usize = 64;
    let mut rng = StdRng::seed_from_u64(derive(seed, 0x4849_5400, 0));
    let corpus = plain_corpus(seed, PLAIN, Platform::Evm);
    let mut inputs: Vec<Input> = corpus
        .contracts()
        .iter()
        .map(|c| Input::new(c.bytes.clone(), Family::Plain, 0))
        .collect();
    inputs.extend(clones(&mut rng, CLONES));
    let hot = inputs.len();
    let mut seen: HashSet<_> = inputs.iter().map(|i| i.key).collect();
    // Level 1 rarely collides, but a collision would be a designed miss
    // that hits: over-generate and keep the unseen ones.
    let candidates = variants(&corpus, fresh + fresh / 8 + 16, |_| 1, 0x4849_5401, seed);
    inputs.extend(unseen(candidates, &mut seen).into_iter().take(fresh));
    let fresh = inputs.len() - hot;
    let warmup: Vec<u32> = (0..hot as u32).collect();
    let sequence: Vec<u32> = (0..fresh * HIT_MISS_EVERY)
        .map(|i| {
            if i % HIT_MISS_EVERY == HIT_MISS_EVERY - 1 {
                (hot + i / HIT_MISS_EVERY) as u32
            } else {
                rng.random_range(0..hot) as u32
            }
        })
        .collect();
    finish(inputs, warmup, sequence)
}

/// Warm-up contracts of `wire-obfuscated`: enough to settle connections
/// and allocators, none of them ever sent again.
const OBFUSCATED_WARMUP: usize = 128;

/// `wire-obfuscated`: `count` distinct EVM variants at obfuscation
/// levels 3, 4 and 5 in turn, each sent once. They are drawn from 2000
/// generated contracts, so the mean cost of a request barely moves
/// from seed to seed.
pub fn wire_obfuscated(seed: u64, count: usize) -> WireInputs {
    let corpus = plain_corpus(seed, 2000, Platform::Evm);
    let wanted = OBFUSCATED_WARMUP + count;
    let candidates = variants(
        &corpus,
        wanted + wanted / 50 + 16,
        |j| 3 + (j % 3) as u8,
        0x4F42_4600,
        seed,
    );
    let mut seen = HashSet::new();
    let inputs: Vec<Input> = unseen(candidates, &mut seen)
        .into_iter()
        .take(wanted)
        .collect();
    let warmup: Vec<u32> = (0..OBFUSCATED_WARMUP as u32).collect();
    let sequence: Vec<u32> = (OBFUSCATED_WARMUP as u32..inputs.len() as u32).collect();
    finish(inputs, warmup, sequence)
}

/// Contracts in one `batch-snapshot` pass.
pub const SNAPSHOT_LEN: usize = 2048;

/// Distinct snapshots a `batch-snapshot` run cycles through, so that
/// one seed's mix of contract sizes does not set the run's cost.
pub const SNAPSHOTS: u64 = 4;

/// Snapshot `k` of `batch-snapshot`: a shuffled chain snapshot of 1200
/// plain EVM contracts (heavy skeleton sharing), 300 ERC-1167 clones,
/// 300 obfuscated EVM variants at levels 1-5 and 248 WASM modules.
pub fn batch_snapshot(seed: u64, k: u64) -> Vec<Input> {
    let seed = derive(seed, 0x4241_5403, k);
    let mut rng = StdRng::seed_from_u64(derive(seed, 0x4241_5400, 0));
    let corpus = plain_corpus(seed, 1200, Platform::Evm);
    let mut inputs: Vec<Input> = corpus
        .contracts()
        .iter()
        .map(|c| Input::new(c.bytes.clone(), Family::Plain, 0))
        .collect();
    inputs.extend(clones(&mut rng, 300));
    inputs.extend(variants(
        &corpus,
        300,
        |j| 1 + (j % 5) as u8,
        0x4241_5401,
        seed,
    ));
    let wasm = plain_corpus(derive(seed, 0x4241_5402, 0), 248, Platform::Wasm);
    inputs.extend(
        wasm.contracts()
            .iter()
            .map(|c| Input::new(c.bytes.clone(), Family::Wasm, 0)),
    );
    debug_assert_eq!(inputs.len(), SNAPSHOT_LEN);
    // Fisher-Yates: a snapshot interleaves every kind of contract.
    for i in (1..inputs.len()).rev() {
        let j = rng.random_range(0..=i);
        inputs.swap(i, j);
    }
    inputs
}

/// The snapshot as a request stream: one pass in snapshot order, no
/// warm-up, for the traced run's wire and handler layers.
pub fn snapshot_stream(seed: u64) -> WireInputs {
    let inputs = batch_snapshot(seed, 0);
    let sequence = (0..inputs.len() as u32).collect();
    finish(inputs, Vec::new(), sequence)
}

/// What the sent inputs look like: sizes, skeleton sharing, and the
/// platform, family and obfuscation-level mix.
pub fn describe(
    inputs: &[Input],
    sent: impl Iterator<Item = usize>,
    bodies: Option<&[String]>,
) -> Json {
    let mut contract_bytes = Vec::new();
    let mut body_bytes = Vec::new();
    let mut keys = HashSet::new();
    let mut platforms = [0usize; 2];
    let mut levels = [0usize; 6];
    let mut families = [0usize; 4];
    for i in sent {
        let input = &inputs[i];
        contract_bytes.push(input.bytes.len() as f64);
        if let Some(bodies) = bodies {
            body_bytes.push(bodies[i].len() as f64);
        }
        keys.insert(input.key);
        platforms[usize::from(input.platform == Platform::Wasm)] += 1;
        levels[usize::from(input.level)] += 1;
        families[input.family as usize] += 1;
    }
    let n = contract_bytes.len();
    let counts = |names: &[&str], counts: &[usize]| {
        Json::Obj(
            names
                .iter()
                .zip(counts)
                .map(|(name, &c)| (name.to_string(), Json::from(c)))
                .collect(),
        )
    };
    let mut fields = vec![
        ("requests".to_string(), Json::from(n)),
        ("contract_bytes".to_string(), distribution(contract_bytes)),
    ];
    if bodies.is_some() {
        fields.push(("body_bytes".to_string(), distribution(body_bytes)));
    }
    fields.extend([
        (
            "unique_skeleton_share".to_string(),
            Json::from(keys.len() as f64 / n.max(1) as f64),
        ),
        (
            "platforms".to_string(),
            counts(&["evm", "wasm"], &platforms),
        ),
        (
            "families".to_string(),
            counts(
                &[
                    Family::Plain,
                    Family::Clone,
                    Family::Obfuscated,
                    Family::Wasm,
                ]
                .map(Family::name),
                &families,
            ),
        ),
        (
            "obfuscation_levels".to_string(),
            counts(&["0", "1", "2", "3", "4", "5"], &levels),
        ),
    ]);
    Json::Obj(fields)
}

fn distribution(mut values: Vec<f64>) -> Json {
    values.sort_by(f64::total_cmp);
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let max = values.last().copied().unwrap_or(0.0);
    Json::Obj(vec![
        ("mean".to_string(), Json::from(mean)),
        (
            "p99".to_string(),
            Json::from(stats::tail_percentile(&values, 0.99).unwrap_or(max)),
        ),
        ("max".to_string(), Json::from(max)),
    ])
}

/// `true` at each position whose key occurs for the first time: the
/// designed misses of one pass over `inputs` with cold caches.
pub fn first_occurrences<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> Vec<bool> {
    let mut seen = HashSet::new();
    inputs.into_iter().map(|i| seen.insert(i.key)).collect()
}

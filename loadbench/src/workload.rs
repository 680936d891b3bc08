//! The three workloads: what a session's stack is and which requests its
//! connections send, all generated from the workload seed.
//!
//! * `fl-session` — training-bound: a 10-provider MLP federation behind
//!   the full FL stack, six mixed estimators per connection that share
//!   coalitions through the session's caches.
//! * `hash-anytime` — estimator-bound: streaming stratified MC and
//!   Neyman-adaptive Owen with CI stopping over a hash game whose
//!   evaluations cost almost nothing.
//! * `wire-small` — transport-bound: tiny LOO and stratified MC requests
//!   over a 6-player hash game, thousands a second.

use std::net::SocketAddr;
use std::sync::Arc;

use fedval_core::service::ValuationServer;
use fedval_core::utility::{HashUtility, ParallelUtility, Utility};
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::trajcache::TrajectoryCache;
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use fedval_serve::{json, wire, WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::{Boundary, Recorder, Timed};

/// Client connections, one closed-loop generator thread each — the
/// core count of the machine the benchmark was sized on.
pub const CONNECTIONS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FlSession,
    HashAnytime,
    WireSmall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FlSession,
        Workload::HashAnytime,
        Workload::WireSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlSession => "fl-session",
            Workload::HashAnytime => "hash-anytime",
            Workload::WireSmall => "wire-small",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Session variants per run. A run cycles through them, so its
    /// figures average over many federations and request lists drawn
    /// from the seed instead of resting on one; the fewer requests a
    /// session holds, the more variants it takes. A multiple of the
    /// per-connection request count where that is small, so the
    /// rotation in [`Workload::requests`] is balanced over a cycle.
    pub fn variants(self) -> usize {
        match self {
            Workload::FlSession => 72,
            Workload::HashAnytime => 48,
            Workload::WireSmall => 16,
        }
    }

    pub fn is_fl(self) -> bool {
        self == Workload::FlSession
    }

    /// The request bodies of session variant `k` of a run seeded `seed`,
    /// one list per connection. Each connection's order is a seeded
    /// permutation that all variants share, rotated by `k`: over a cycle
    /// every kind of request takes every position equally often, so the
    /// cold-cache first slot does not fall to one kind by luck.
    pub fn requests(self, seed: u64, k: usize) -> Vec<Vec<String>> {
        let mut order = StdRng::seed_from_u64(seed ^ 0x0de7_0de7);
        let mut content = StdRng::seed_from_u64(variant_seed(seed, k) ^ 0x5e55_1011);
        (0..CONNECTIONS)
            .map(|_| {
                let mut slots = Kind::slots(self);
                slots.shuffle(&mut order);
                let len = slots.len();
                slots.rotate_left(k % len);
                slots
                    .into_iter()
                    .map(|kind| kind.body(&mut content))
                    .collect()
            })
            .collect()
    }

    /// Build the session's valuation server and hand it to `visit`:
    /// untraced with `rec = None` (the FL stack exactly as
    /// `fedval_fl::service::serve` builds it), or with timing wrappers
    /// recording into `rec`.
    pub fn build<V: Visit>(self, seed: u64, rec: Option<Arc<Recorder>>, visit: V) -> V::Out {
        match (self, rec) {
            (Workload::FlSession, None) => {
                visit.visit(serve(federation(seed), FlServiceConfig::default()).0)
            }
            (Workload::FlSession, Some(rec)) => {
                // The same stack `serve` builds, from the same public
                // constructors, with a timing wrapper under the fan-out
                // and one between it and the coalition cache.
                let cache = Arc::new(TrajectoryCache::new());
                let fl = federation(seed).with_traj_cache(Arc::clone(&cache));
                let blocks = Timed::new(fl, Boundary::FlBlock, Arc::clone(&rec));
                let fan_out = Timed::new(ParallelUtility::new(blocks), Boundary::Utility, rec);
                visit.visit(
                    ValuationServer::builder(fan_out)
                        .traj_stats(move || cache.stats())
                        .start(),
                )
            }
            (w, rec) => {
                let n = if w == Workload::HashAnytime { 12 } else { 6 };
                let game = HashUtility { n, seed };
                match rec {
                    None => visit.visit(ValuationServer::start(game)),
                    Some(rec) => visit.visit(ValuationServer::start(Timed::new(
                        game,
                        Boundary::Utility,
                        rec,
                    ))),
                }
            }
        }
    }
}

/// Something done with a freshly built valuation server, whatever its
/// utility stack.
pub trait Visit {
    type Out;
    fn visit<U: Utility + Send + Sync + 'static>(self, valuation: ValuationServer<U>) -> Self::Out;
}

/// A running session stack behind the wire.
pub struct Stack {
    pub addr: SocketAddr,
    stop: Box<dyn FnOnce()>,
}

impl Stack {
    /// Drain and join every server thread.
    pub fn shutdown(self) {
        (self.stop)();
    }
}

/// Put a valuation server behind a [`WireServer`] on a loopback port.
pub struct ToWire;

impl Visit for ToWire {
    type Out = Stack;
    fn visit<U: Utility + Send + Sync + 'static>(self, valuation: ValuationServer<U>) -> Stack {
        let wire = WireServer::start(valuation, WireConfig::default()).expect("bind loopback");
        Stack {
            addr: wire.addr(),
            stop: Box::new(move || wire.shutdown()),
        }
    }
}

/// The reference answers of one session.
pub struct Reference {
    /// Value bits per connection and request.
    pub values: Vec<Vec<Vec<u64>>>,
    /// Distinct coalitions the session trains (`EvalStats::evaluations`)
    /// — a pure function of the request list.
    pub evaluations: usize,
}

/// Run every request solo and in order, in process, through
/// `ValuationServer::call`.
pub struct ToReference<'a>(pub &'a [Vec<String>]);

impl Visit for ToReference<'_> {
    type Out = Result<Reference, String>;
    fn visit<U: Utility + Send + Sync + 'static>(
        self,
        valuation: ValuationServer<U>,
    ) -> Result<Reference, String> {
        let mut values = Vec::new();
        for bodies in self.0 {
            let mut conn = Vec::new();
            for body in bodies {
                let doc = json::parse(body).map_err(|e| format!("{body}: {e}"))?;
                let request =
                    wire::parse_valuation_request(&doc).map_err(|e| format!("{body}: {e}"))?;
                let resp = valuation
                    .call(request)
                    .map_err(|e| format!("{body}: {e}"))?;
                conn.push(resp.values.iter().map(|v| v.to_bits()).collect());
            }
            values.push(conn);
        }
        let evaluations = valuation.stats().eval.evaluations;
        valuation.shutdown();
        Ok(Reference {
            values,
            evaluations,
        })
    }
}

/// Data providers of the FL federation.
const FL_PROVIDERS: usize = 10;

/// The FL federation of a session: 10 providers of 24 synthetic
/// MNIST-like samples each, the default MLP, FedAvg 2 rounds × 1 epoch.
fn federation(seed: u64) -> FlUtility {
    let gen = MnistLike::new(seed);
    let (train, test) = gen.generate_split(24 * FL_PROVIDERS, 12 * FL_PROVIDERS, seed ^ 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 2);
    let parts = SyntheticSetup::SameSizeSameDist.partition(&train, FL_PROVIDERS, &mut rng);
    FlUtility::new(
        parts,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            seed: seed ^ 3,
            ..Default::default()
        },
    )
}

/// The seed of session variant `k` of a run seeded `seed`: it fixes the
/// variant's federation or game and the content of its requests.
pub fn variant_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64)
}

/// The kinds of request a session sends.
#[derive(Clone, Copy)]
enum Kind {
    Ipss,
    StratifiedMc,
    Owen,
    Loo,
    BanzhafPruned,
    /// Stratified CC over a seeded half of the providers.
    SubGameCc,
    /// Streaming stratified MC that stops on a CI target.
    AnytimeStratified,
    /// Streaming Neyman-adaptive Owen that stops on a CI target.
    AnytimeOwen,
    SmallLoo,
    SmallStratified,
}

impl Kind {
    /// One connection's requests of a session, in canonical order.
    fn slots(w: Workload) -> Vec<Kind> {
        match w {
            // One of each estimator the FL service offers, at
            // paper-scale budgets.
            Workload::FlSession => vec![
                Kind::Ipss,
                Kind::StratifiedMc,
                Kind::Owen,
                Kind::Loo,
                Kind::BanzhafPruned,
                Kind::SubGameCc,
            ],
            // A fixed 3:1 mix: the two estimators' latencies barely
            // overlap, and an even mix would put the median in the gap.
            Workload::HashAnytime => vec![
                Kind::AnytimeStratified,
                Kind::AnytimeStratified,
                Kind::AnytimeStratified,
                Kind::AnytimeOwen,
            ],
            Workload::WireSmall => [Kind::SmallLoo, Kind::SmallStratified].repeat(50),
        }
    }

    fn body(self, rng: &mut StdRng) -> String {
        let n = FL_PROVIDERS;
        let seed = rng.random_range(0..1_000_000u64);
        match self {
            Kind::Ipss => format!(r#"{{"estimator":"ipss","budget":{},"seed":{seed}}}"#, 4 * n),
            Kind::StratifiedMc => {
                format!(
                    r#"{{"estimator":"stratified_mc","budget":{},"seed":{seed}}}"#,
                    8 * n
                )
            }
            Kind::Owen => format!(r#"{{"estimator":"owen","budget":{},"seed":{seed}}}"#, 8 * n),
            Kind::Loo | Kind::SmallLoo => format!(r#"{{"estimator":"loo","seed":{seed}}}"#),
            Kind::BanzhafPruned => {
                format!(
                    r#"{{"estimator":"banzhaf_pruned","budget":{},"seed":{seed}}}"#,
                    4 * n
                )
            }
            Kind::SubGameCc => {
                let mut half: Vec<usize> = (0..n).collect();
                half.shuffle(rng);
                half.truncate(n / 2);
                half.sort_unstable();
                let half: Vec<String> = half.iter().map(usize::to_string).collect();
                format!(
                    r#"{{"estimator":"stratified_cc","budget":{},"seed":{seed},"clients":[{}]}}"#,
                    8 * n / 2,
                    half.join(",")
                )
            }
            Kind::AnytimeStratified | Kind::AnytimeOwen => {
                let budget = rng.random_range(1000..=1600usize);
                let eps = rng.random_range(0.03..0.06f64);
                if matches!(self, Kind::AnytimeStratified) {
                    format!(
                        r#"{{"estimator":"stratified_mc","budget":{budget},"seed":{seed},"stopping":{{"ci_at_most":{eps}}}}}"#
                    )
                } else {
                    format!(
                        r#"{{"estimator":"owen","budget":{budget},"seed":{seed},"stopping":{{"ci_at_most":{eps}}},"adaptive":{{}}}}"#
                    )
                }
            }
            Kind::SmallStratified => {
                format!(r#"{{"estimator":"stratified_mc","budget":40,"seed":{seed}}}"#)
            }
        }
    }
}

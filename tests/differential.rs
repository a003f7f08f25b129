//! Differential runs: seeded draws of an application's parameters, the
//! cluster size, a protocol of the program's style, a network generation and
//! a fault plan (none, loss, or one slowed node), each run compared with the
//! application's sequential reference. The parallel result must equal the
//! sequential one on every input drawn.
//!
//! Crash windows are not drawn: only the serving workload acts on them, and
//! the batch applications drawn here ignore a plan's crash entries.
//!
//! A failing draw panics with its seed. `draw(seed)` rebuilds the same run
//! from the seed alone; add the seed to `REGRESSIONS` to keep it in tier-1.
//! `make fuzz` runs the long, ignored test in release.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vopp_repro::apps::gauss::{gauss_reference, run_gauss, GaussParams, GaussVariant};
use vopp_repro::apps::is::{is_reference, run_is, IsParams, IsVariant};
use vopp_repro::apps::nn::{nn_reference, run_nn, NnParams, NnVariant};
use vopp_repro::apps::sor::{run_sor, sor_reference, SorParams, SorVariant};
use vopp_repro::dsm::{ClusterConfig, FaultPlan, Protocol};
use vopp_repro::simnet::NetGen;

/// Draws every `cargo test` runs: about 4 s on 2 cores, with `vopp-apps`
/// optimised in the dev profile (root `Cargo.toml`) and the rest in debug.
const TIER1_DRAWS: u64 = 1_000;
/// Draws `make fuzz` runs in release.
const FUZZ_DRAWS: u64 = 20_000;
/// Seeds that once failed, replayed on every run.
const REGRESSIONS: &[u64] = &[];

/// SplitMix64, seeded per draw.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }
}

#[derive(Debug, Clone, Copy)]
enum App {
    Is(IsVariant),
    Sor,
    Gauss,
    Nn(NnVariant),
}

/// What goes wrong during a run, on top of the generation's own loss.
#[derive(Debug)]
enum Plan {
    Clean,
    /// Seed of a 2 % loss plan.
    Loss(u64),
    /// One node's CPU slowed down by a factor.
    Slow(usize, f64),
}

/// One run: everything the seed decides, printed on failure.
#[derive(Debug)]
struct Draw {
    app: App,
    np: usize,
    proto: Protocol,
    net: NetGen,
    plan: Plan,
    is: IsParams,
    sor: SorParams,
    gauss: GaussParams,
    nn: NnParams,
}

/// The run `seed` stands for. `np` overrides the drawn cluster size.
fn draw(seed: u64, np: Option<usize>) -> Draw {
    const TRADITIONAL: [Protocol; 3] = [Protocol::LrcD, Protocol::Hlrc, Protocol::ScC];
    const VOPP: [Protocol; 3] = [Protocol::VcD, Protocol::VcSd, Protocol::VcRdma];
    let mut rng = Rng(seed);
    let np = np.unwrap_or_else(|| rng.range(1, 9));
    let vopp = rng.flip();
    let app = match rng.range(0, 3) {
        0 if vopp => App::Is(rng.pick(&[IsVariant::Vopp, IsVariant::VoppLb])),
        0 => App::Is(IsVariant::Traditional),
        1 => App::Sor,
        2 => App::Gauss,
        _ if rng.flip() => App::Nn(NnVariant::Mpi),
        _ if vopp => App::Nn(NnVariant::Vopp),
        _ => App::Nn(NnVariant::Traditional),
    };
    let bmax = rng.range(16, 700);
    Draw {
        app,
        np,
        proto: rng.pick(if vopp { &VOPP } else { &TRADITIONAL }),
        net: rng.pick(&NetGen::ALL),
        plan: match rng.range(0, 2) {
            0 => Plan::Clean,
            1 => Plan::Loss(rng.next()),
            _ => Plan::Slow(rng.range(0, np - 1), rng.pick(&[1.25, 2.0, 5.0])),
        },
        is: IsParams {
            n_keys: rng.range(np, 4096),
            bmax,
            reps: rng.range(1, 3),
            chunks: rng.range(1, bmax.min(16)),
            seed: rng.next(),
        },
        sor: SorParams {
            rows: rng.range(2 * np + 2, 2 * np + 40),
            cols: rng.range(4, 40),
            iters: rng.range(1, 5),
            seed: rng.next(),
        },
        gauss: GaussParams {
            rows: rng.range(2 * np, 2 * np + 48),
            cols: rng.range(4, 40),
            iters: rng.range(1, 5),
            seed: rng.next(),
        },
        nn: NnParams {
            n_in: rng.range(1, 8),
            n_hidden: rng.range(1, 10),
            n_out: rng.range(1, 4),
            samples: rng.range(1, 80),
            epochs: rng.range(1, 4),
            lr: rng.pick(&[0.01, 0.05, 0.2]),
            seed: rng.next(),
        },
    }
}

/// Run the draw; `Err` describes a result that differs from the reference.
fn run(d: &Draw) -> Result<(), String> {
    let mut cfg = ClusterConfig::new(d.np, d.proto);
    cfg.net = d.net.config();
    cfg.faults = match d.plan {
        Plan::Clean => FaultPlan::none(),
        Plan::Loss(seed) => FaultPlan::none().with_loss(0.02, seed),
        Plan::Slow(node, factor) => FaultPlan::none().with_slowdown(node, factor),
    };
    let vopp = d.proto.is_vc();
    let (got, want) = match d.app {
        App::Is(variant) => (
            run_is(&cfg, &d.is, variant).value,
            is_reference(&d.is, d.np, variant == IsVariant::VoppLb),
        ),
        App::Sor => {
            let variant = [SorVariant::Traditional, SorVariant::Vopp][usize::from(vopp)];
            let out = run_sor(&cfg, &d.sor, variant).value;
            (out.to_bits(), sor_reference(&d.sor).to_bits())
        }
        App::Gauss => {
            let variant = [GaussVariant::Traditional, GaussVariant::Vopp][usize::from(vopp)];
            let out = run_gauss(&cfg, &d.gauss, variant).value;
            (out.to_bits(), gauss_reference(&d.gauss, d.np).to_bits())
        }
        App::Nn(variant) => {
            let out = run_nn(&cfg, &d.nn, variant).value;
            (out.to_bits(), nn_reference(&d.nn, d.np).to_bits())
        }
    };
    (got == want)
        .then_some(())
        .ok_or_else(|| format!("got {got:#x}, reference {want:#x}"))
}

fn check(seed: u64, np: Option<usize>) {
    let d = draw(seed, np);
    let e = match catch_unwind(AssertUnwindSafe(|| run(&d))) {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(_) => "the run panicked".to_string(),
    };
    panic!("draw seed {seed} (np {np:?}) is wrong: {e}\n{d:#?}");
}

#[test]
fn drawn_runs_equal_their_sequential_references() {
    for &seed in REGRESSIONS {
        check(seed, None);
    }
    for seed in 0..TIER1_DRAWS {
        check(seed, None);
    }
}

/// One 65-node traditional draw: past 64 nodes, the path of the sole-writer
/// mask that once held only 64 bits.
#[test]
fn a_65_node_lrc_d_draw_equals_its_reference() {
    let mut seed = 0;
    while draw(seed, Some(65)).proto != Protocol::LrcD {
        seed += 1;
    }
    check(seed, Some(65));
}

#[test]
#[ignore = "the long budget: `make fuzz` runs it in release"]
fn many_drawn_runs_equal_their_sequential_references() {
    for seed in TIER1_DRAWS..TIER1_DRAWS + FUZZ_DRAWS {
        check(seed, None);
    }
}

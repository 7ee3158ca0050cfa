//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the small API surface the workspace's benches use —
//! benchmark groups, `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros — with a simple wall-clock timer instead of
//! criterion's statistical machinery. Each benchmark is warmed up, then
//! timed over enough iterations to fill a short measurement window, and
//! the mean time per iteration is printed.
//!
//! This keeps `cargo bench` functional (and the bench targets
//! compiling, which `cargo test` checks) without any external deps.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Label for one benchmark case within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", function.into()))
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to measurement closures; [`Bencher::iter`] times the routine.
pub struct Bencher {
    warmup: Duration,
    window: Duration,
    result_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Measures `routine`, storing the mean wall-clock time per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up window elapses.
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            std::hint::black_box(routine());
        }
        // Measurement: batches until the window fills.
        let mut iters: u64 = 0;
        let mut elapsed = Duration::ZERO;
        while elapsed < self.window {
            let t = Instant::now();
            std::hint::black_box(routine());
            elapsed += t.elapsed();
            iters += 1;
        }
        self.iters = iters;
        self.result_ns = elapsed.as_nanos() as f64 / iters as f64;
    }
}

/// The harness entry point, created by [`criterion_group!`].
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmark cases.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\ngroup: {name}");
        BenchmarkGroup {
            _parent: self,
            name,
        }
    }
}

/// A group of benchmark cases sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_case(&format!("{}/{id}", self.name), f);
        self
    }

    /// Benchmarks `f(bencher, input)` under `id` within this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_case(&format!("{}/{}", self.name, id.0), |b| f(b, input));
        self
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

fn run_case<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut b = Bencher {
        warmup: Duration::from_millis(50),
        window: Duration::from_millis(200),
        result_ns: 0.0,
        iters: 0,
    };
    f(&mut b);
    let (value, unit) = humanize_ns(b.result_ns);
    println!("  {label}: {value:.2} {unit}/iter ({} iters)", b.iters);
}

fn humanize_ns(ns: f64) -> (f64, &'static str) {
    if ns >= 1e9 {
        (ns / 1e9, "s")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "µs")
    } else {
        (ns, "ns")
    }
}

/// Declares a benchmark group function running each listed bench.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

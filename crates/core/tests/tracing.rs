//! End-to-end tracing across the parallel engine.
//!
//! The contract under test: with a process-wide observer carrying a
//! `TraceRecorder` and an ambient root span, a parallel matrix run yields
//! **one coherent trace** — every worker's `exec.job` span shares the root's
//! trace id and parents to the root span, and the Chrome trace-event export
//! passes the repo's own validator.
//!
//! Lives in its own integration binary because `observer::install` is
//! once-per-process. The three tests share that one process-wide tracer,
//! and an ambient root set by one would parent another's job spans, so
//! each runs under [`serial`].

use std::sync::{Arc, Mutex, MutexGuard};

use nvpim_array::{ArchStyle, ArrayDims};
use nvpim_balance::BalanceConfig;
use nvpim_core::{run_matrix, SimConfig};
use nvpim_obs::{observer, validate, Observer, TraceRecorder};
use nvpim_workloads::parallel_mul::ParallelMul;
use nvpim_workloads::Workload;

fn workload() -> Workload {
    ParallelMul::new(ArrayDims::new(128, 8), 8).build()
}

/// Serializes the tests of this binary around the shared tracer (a failed
/// sibling's poisoned lock still serializes).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn parallel_matrix_produces_one_coherent_trace() {
    let _serial = serial();
    let recorder = Arc::new(TraceRecorder::new());
    let installed = observer::install(Observer::collecting().with_tracer(Arc::clone(&recorder)))
        .expect("first install in this process");
    let tracer = installed.tracer().expect("tracer attached");

    let configs: Vec<BalanceConfig> =
        ["StxSt", "RaxSt", "RaxRa", "BsxSt"].iter().map(|s| s.parse().unwrap()).collect();
    let base = SimConfig::default().with_iterations(8);

    let root_trace;
    let root_span;
    {
        let root = tracer.begin_trace("repro.matrix");
        root_trace = root.trace();
        root_span = root.id();
        tracer.set_ambient(root.context());
        let cells = run_matrix(&[workload()], &configs, &[base.arch], &[Some(4), None], base, 2);
        assert_eq!(cells.len(), 8);
        tracer.clear_ambient();
    }

    // Every job span belongs to the root's trace and parents to the root.
    let jobs: Vec<_> = recorder.spans().into_iter().filter(|s| s.name == "exec.job").collect();
    assert_eq!(jobs.len(), 8, "one exec.job span per matrix cell");
    for job in &jobs {
        assert_eq!(job.trace, root_trace, "job span escaped the trace");
        assert_eq!(job.parent, Some(root_span), "job span not parented to root");
    }
    // Job indices cover the whole matrix (attrs propagate through workers).
    let mut indices: Vec<u64> = jobs
        .iter()
        .filter_map(|s| {
            s.attrs.iter().find_map(|(k, v)| match v {
                nvpim_obs::trace::AttrValue::U64(n) if *k == "job" => Some(*n),
                _ => None,
            })
        })
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..8).collect::<Vec<u64>>());

    // The whole trace — root plus jobs — exports as valid Chrome JSON.
    let chrome = recorder.chrome_trace_for(root_trace);
    let stats = validate::chrome_trace(&chrome).expect("valid Chrome trace");
    assert_eq!(stats.complete_spans, 9, "root + 8 jobs");

    // Flame aggregation sees the jobs under the root.
    let flame = recorder.flame();
    let job_row = flame.iter().find(|r| r.name == "exec.job").expect("exec.job row");
    assert_eq!(job_row.count, 8);
    let root_row = flame.iter().find(|r| r.name == "repro.matrix").expect("root row");
    assert!(root_row.total_ns >= root_row.self_ns, "self time excludes child job time");
}

#[test]
fn without_ambient_context_jobs_open_no_spans() {
    let _serial = serial();
    // Runs in the same process as the test above (order unknown), so it
    // asserts a relative property: fan-out with no ambient set records no
    // *new* exec.job spans. It installs nothing: the observer (and its
    // tracer) is the matrix test's to install first.
    let installed = observer::current();
    let tracer = installed.as_deref().and_then(Observer::tracer);
    if let Some(tracer) = tracer {
        tracer.clear_ambient();
    }
    let count_jobs =
        || tracer.map_or(0, |t| t.spans().iter().filter(|s| s.name == "exec.job").count());
    let before = count_jobs();
    let out = nvpim_core::fan_out((0..4u64).collect(), 2, |i, _| i + 1);
    assert_eq!(out, vec![1, 2, 3, 4]);
    assert_eq!(count_jobs(), before, "no ambient context ⇒ no job spans");
}

#[test]
fn traced_parallel_results_stay_bit_identical() {
    let _serial = serial();
    // Tracing must not perturb simulation results: the same matrix with
    // and without an ambient root span produces identical wear maps.
    let configs: Vec<BalanceConfig> =
        ["RaxRa+Hw", "StxSt"].iter().map(|s| s.parse().unwrap()).collect();
    let base = SimConfig::default().with_iterations(10);
    let arch = [ArchStyle::SenseAmp];
    let quiet = run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2);
    // Uses the matrix test's tracer when it ran first; installs nothing.
    let traced = {
        let installed = observer::current();
        match installed.as_deref().and_then(Observer::tracer) {
            Some(tracer) => {
                let root = tracer.begin_trace("determinism");
                tracer.set_ambient(root.context());
                let cells = run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2);
                tracer.clear_ambient();
                cells
            }
            None => run_matrix(&[workload()], &configs, &arch, &[Some(5)], base, 2),
        }
    };
    for ((pq, rq), (pt, rt)) in quiet.iter().zip(&traced) {
        assert_eq!(pq, pt);
        for row in 0..128 {
            for lane in 0..8 {
                assert_eq!(rq.wear.writes_at(row, lane), rt.wear.writes_at(row, lane));
            }
        }
    }
}

//! Satellite: the registry under concurrency — hammer counters and
//! histograms from 16 threads and assert exact totals; snapshot/diff
//! determinism.

use colr_telemetry::{Registry, HISTOGRAM_BUCKETS};

const THREADS: usize = 16;
const OPS: u64 = 10_000;

#[test]
fn sixteen_threads_hammer_counters_exact_totals() {
    let r = Registry::new();
    let c = r.counter("hammer_total");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            // Half the threads go through fresh handles (exercising the
            // create-on-first-use read path), half through clones.
            let c = c.clone();
            let r = &r;
            scope.spawn(move || {
                let c2 = r.counter("hammer_total");
                for i in 0..OPS {
                    if i % 2 == 0 {
                        c.inc();
                    } else {
                        c2.add(1);
                    }
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS as u64 * OPS);
    assert_eq!(r.counter("hammer_total").get(), THREADS as u64 * OPS);
}

#[test]
fn sixteen_threads_hammer_histogram_exact_totals() {
    let r = Registry::new();
    let h = r.histogram("hammer_us");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let h = h.clone();
            scope.spawn(move || {
                for i in 0..OPS {
                    // Deterministic value mix across the bucket range.
                    h.observe(i % 1024);
                }
            });
        }
    });
    let s = h.snapshot();
    let total = THREADS as u64 * OPS;
    assert_eq!(s.count, total);
    // Every thread observes each residue 0..1024 the same number of times,
    // so the exact sum is THREADS * OPS * mean(residues).
    let per_thread_sum: u64 = (0..OPS).map(|i| i % 1024).sum();
    assert_eq!(s.sum, THREADS as u64 * per_thread_sum);
    assert_eq!(
        s.buckets.iter().sum::<u64>(),
        total,
        "buckets account for all"
    );
    // No observation exceeded 1023, so buckets above log2(1024) are empty.
    assert!(s.buckets[11..HISTOGRAM_BUCKETS].iter().all(|&b| b == 0));
}

#[test]
fn snapshot_diff_is_deterministic_under_concurrency() {
    let r = Registry::new();
    let c = r.counter("phase_total");
    let h = r.histogram("phase_us");
    c.add(5);
    h.observe(50);
    let before = r.snapshot();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let c = c.clone();
            let h = h.clone();
            scope.spawn(move || {
                for _ in 0..OPS {
                    c.inc();
                    h.observe(100);
                }
            });
        }
    });
    let after = r.snapshot();
    let d = after.diff(&before);
    let total = THREADS as u64 * OPS;
    assert_eq!(
        d.counters["phase_total"], total,
        "diff isolates the interval"
    );
    assert_eq!(d.histograms["phase_us"].count, total);
    assert_eq!(d.histograms["phase_us"].sum, total * 100);
    // Determinism: rendering the same diff twice yields identical bytes.
    assert_eq!(d.to_prometheus(), after.diff(&before).to_prometheus());
    assert_eq!(d.to_json(), after.diff(&before).to_json());
    // And the full-before/after identity holds: before + diff == after.
    assert_eq!(
        before.counters["phase_total"] + d.counters["phase_total"],
        after.counters["phase_total"]
    );
}

//! Dropping the last service handle while `submit_async` is running.
//!
//! The executor's worker then holds the last reference to the service,
//! so the service's teardown (which stops the executor) runs on that
//! worker. The ticket must still complete, and the teardown must not
//! try to join the worker from itself. This file is its own test
//! process, so the counting panic hook sees only this test's panics.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::{Backend, Candidate, TransposeOptions};
use ttlg_runtime::{MeasurementSink, TransposeRequest, TransposeService};
use ttlg_tensor::{DenseTensor, Permutation, Shape};

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Signals that the run reached its record stage, then holds it there
/// until the test has dropped its service handle.
#[derive(Default)]
struct Gate {
    entered: AtomicBool,
    release: AtomicBool,
}

impl MeasurementSink for Gate {
    fn observe_candidate(&self, _c: &Candidate, _measured_ns: f64) {
        self.entered.store(true, Ordering::SeqCst);
        wait_for(&self.release);
    }
}

fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(flag.load(Ordering::SeqCst), "timed out waiting for a flag");
}

#[test]
fn dropping_the_last_service_handle_mid_request_completes_the_ticket() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let sink = Arc::new(Gate::default());
    let svc: Arc<TransposeService<f64>> = Arc::new(
        TransposeService::new_k40c()
            .with_measurement_sink(Arc::clone(&sink) as Arc<dyn MeasurementSink>),
    );
    let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[48, 32, 24]).unwrap()));
    let mut req = TransposeRequest::new(input, Permutation::new(&[2, 0, 1]).unwrap());
    req.opts = TransposeOptions::for_backend(Backend::Cpu);
    let ticket = svc.submit_async(req);

    wait_for(&sink.entered);
    // The worker now holds the only other reference; this makes it the last.
    drop(svc);
    sink.release.store(true, Ordering::SeqCst);

    let out = ticket
        .wait_timeout(Duration::from_secs(10))
        .expect("the ticket completes although the service went away");
    assert!(out.result.is_ok(), "{:?}", out.result.as_ref().err());
    // The teardown runs on the worker right after it completes the
    // ticket; give it time to finish before counting.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "teardown panicked");
}

//! The traced testbed (hand-assembled, every layer wrapped) must run
//! the same program path as the untraced one built by
//! `testbed::Testbed::build`: equal digests of the simulated outputs
//! for every workload at small size. A wrapper that forgot to forward
//! a defaulted trait method (`supports_timed`, `tick_at`, `size_of`,
//! `set_device_floor`, ...) would fall back to the trait default and
//! change those outputs; one whose default reaches the same outputs by
//! another path (`size_of` through `attr`, `prepare_path` leaving
//! every path op to resolve its string) shows in the call sites the
//! tracer counts.

use rb_benchmark::engine::{run_once, EngineSpec, RunOutput};
use rb_benchmark::sweep;
use rb_benchmark::trace::{Layer, Name, Tracer};
use std::path::PathBuf;
use std::rc::Rc;

fn traced_matches_untraced(spec: &EngineSpec) -> (Rc<Tracer>, RunOutput) {
    let tracer = Rc::new(Tracer::new(1024));
    let mut last = None;
    for seed in [1, 2] {
        let plain = run_once(spec, seed, None).expect("untraced run");
        let traced = run_once(spec, seed, Some(&tracer)).expect("traced run");
        assert!(plain.ops > 0);
        assert_eq!(plain.ops, traced.ops, "seed {seed}: ops differ");
        assert_eq!(plain.digest, traced.digest, "seed {seed}: digests differ");
        last = Some(plain);
    }
    assert_eq!(tracer.layer(Layer::Workload).calls, 2);
    assert!(tracer.layer(Layer::Stack).calls > 0);
    assert!(tracer.layer(Layer::Simfs).calls > 0);
    // The data path asks the file system for sizes through `size_of`,
    // and every measured path op arrives pre-resolved.
    assert_eq!(tracer.site(Name::FsAttr).calls, 0);
    assert_eq!(tracer.site(Name::StackPath).calls, 0);
    (tracer, last.expect("two seeds ran"))
}

#[test]
fn randread_hot_wrappers_are_transparent() {
    let (tracer, _) = traced_matches_untraced(&EngineSpec::randread_hot(true));
    assert!(tracer.site(Name::FsSizeOf).calls > 0);
    // Every read hits the prewarmed cache: no allocation in the
    // measured phase.
    assert_eq!(tracer.site(Name::FsSetSize).calls, 0);
}

#[test]
fn fileserver_8p_wrappers_are_transparent() {
    let (tracer, run) = traced_matches_untraced(&EngineSpec::fileserver_8p(true));
    assert!(tracer.layer(Layer::Simdisk).calls > 0);
    assert!(tracer.site(Name::FsSetSize).calls > 0);
    assert!(tracer.site(Name::StackMeta).calls > 0);
    // The flusher wrote dirty pages back (through `tick_at`).
    assert!(run.cache.writeback_flushed > 0);
}

#[test]
fn campaign_sweep_traced_pass_matches_untraced() {
    let base = sweep::grid(true);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("transparency-store");
    let plain = sweep::run_pass(&base, 7, 2, 2, &dir, false).expect("untraced pass");
    let traced = sweep::run_pass(&base, 7, 2, 2, &dir, true).expect("traced pass");
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.sim_ops, traced.sim_ops);
    let layers = traced.layers.expect("traced pass times its layers");
    assert_eq!(layers.loads, plain.cells);
    assert_eq!(layers.misses, 0);
    assert_eq!(layers.records, plain.cells);
    assert!(!dir.exists(), "the pass removes its store");
}

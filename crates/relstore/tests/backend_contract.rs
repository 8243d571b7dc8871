//! The `DocBackend` contract (`testkit::backend_contract`) on both
//! engines. The sharded router runs it in `shard`'s
//! `tests/backend_contract.rs`.

use relstore::{AnyEngine, DocBackend, EngineKind};

#[test]
fn both_engines_honour_the_backend_contract() {
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        let engine = AnyEngine::new(kind);
        assert_eq!(DocBackend::engine_kind(&engine), kind);
        assert!(engine.as_engine().is_some());
        testkit::backend_contract(&engine);
    }
}

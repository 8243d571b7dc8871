//! The `DocBackend` contract (`testkit::backend_contract`) on the
//! sharded backend, one- and three-shard, over both engines. The bare
//! engines run it in `relstore`'s `tests/backend_contract.rs`.

use obs::Registry;
use relstore::{DocBackend, EngineKind};
use shard::ShardedBackend;

#[test]
fn sharded_backend_honours_the_backend_contract() {
    for kind in [EngineKind::TwoPl, EngineKind::Mvcc] {
        for shards in [1, 3] {
            let backend = ShardedBackend::new(kind, shards, Registry::new());
            assert_eq!(backend.engine_kind(), kind);
            assert_eq!(DocBackend::shards(&backend), shards as usize);
            testkit::backend_contract(&backend);
        }
    }
}

//! Property tests for wdoc-core invariants: the lock compatibility
//! table, SCM history, annotation file codec, and integrity
//! propagation.

use proptest::prelude::*;
use wdoc_core::ids::UserId;
use wdoc_core::integrity::{IntegrityDiagram, ObjectRef};
use wdoc_core::sci::{AnnotationOverlay, Stroke};
use wdoc_core::{Access, DocTree, NodeId, ObjectKind, ScmRepo};

/// Build a random tree of `n` nodes with parent links drawn from
/// earlier nodes (always a valid forest rooted at node 0).
fn arb_tree(n: usize) -> impl Strategy<Value = DocTree> {
    proptest::collection::vec(0usize..n.max(1), n.saturating_sub(1)).prop_map(move |parents| {
        let mut t = DocTree::new();
        let root = t.root("n0");
        let mut ids = vec![root];
        for (i, p) in parents.iter().enumerate() {
            let parent = ids[*p % ids.len()];
            ids.push(t.child(parent, format!("n{}", i + 1)));
        }
        t
    })
}

/// A level resolver that answers each question with `f`.
fn each(
    mut f: impl FnMut(&ObjectRef, ObjectKind) -> Vec<String>,
) -> impl FnMut(&[(&ObjectRef, ObjectKind)]) -> Vec<Vec<String>> {
    move |level| level.iter().map(|&(obj, kind)| f(obj, kind)).collect()
}

proptest! {
    /// The grant-time invariant of the paper's table: a lock is granted
    /// only if it is compatible with every *earlier* lock of another
    /// user that covers it (held on an ancestor-or-self). The converse
    /// is deliberately NOT an invariant — §3 allows a later write on a
    /// *parent* of a read-locked container.
    #[test]
    fn grants_respect_earlier_covering_locks(
        ops in proptest::collection::vec((0usize..12, 0u8..3, any::<bool>()), 1..60),
    ) {
        let mut tree = DocTree::new();
        let root = tree.root("root");
        let mut nodes = vec![root];
        for i in 1..12 {
            let parent = nodes[i / 2];
            nodes.push(tree.child(parent, format!("n{i}")));
        }
        let users: Vec<UserId> = (0..3).map(|i| UserId::new(format!("u{i}"))).collect();
        // Grant log in order: (user, node index, mode).
        let mut held: Vec<(usize, usize, Access)> = Vec::new();
        for (node_i, user_i, write) in ops {
            let user = &users[user_i as usize];
            let node = nodes[node_i];
            let mode = if write { Access::Write } else { Access::Read };
            if tree.try_lock(user, node, mode).is_ok() {
                // Re-locks replace the user's entry for that node.
                held.retain(|(u, n, _)| !(*u == user_i as usize && *n == node_i));
                // The new grant must be compatible with every earlier
                // covering lock of another user.
                for (eu, en, emode) in &held {
                    if *eu == user_i as usize {
                        continue;
                    }
                    if tree.is_ancestor_or_self(nodes[*en], node) {
                        prop_assert!(
                            *emode == Access::Read && mode == Access::Read,
                            "grant of {mode:?} on n{node_i} by u{user_i} conflicts with \
                             earlier {emode:?} on n{en} by u{eu}"
                        );
                    }
                }
                held.push((user_i as usize, node_i, mode));
            }
        }
    }

    /// On any random tree: a write lock on node X blocks every other
    /// user everywhere in subtree(X) and nowhere else.
    #[test]
    fn write_lock_covers_exactly_its_subtree(tree in arb_tree(20), locked in 0u32..20) {
        let mut tree = tree;
        let n = tree.len() as u32;
        prop_assume!(locked < n);
        let holder = UserId::new("holder");
        let probe = UserId::new("probe");
        let target = NodeId(locked);
        tree.try_lock(&holder, target, Access::Write).unwrap();
        for i in 0..n {
            let node = NodeId(i);
            let blocked = tree.check(&probe, node, Access::Read).is_some();
            let in_subtree = tree.is_ancestor_or_self(target, node);
            prop_assert_eq!(blocked, in_subtree, "node {}", i);
        }
    }

    /// SCM: after any sequence of checkout/checkin/cancel, version
    /// numbers are strictly increasing 1..=head and the content of the
    /// head equals the last successful checkin.
    #[test]
    fn scm_history_is_append_only(
        ops in proptest::collection::vec((0u8..3, 0u8..2, "[a-z]{1,6}"), 1..40),
    ) {
        let users: Vec<UserId> = vec![UserId::new("a"), UserId::new("b")];
        let mut repo = ScmRepo::new();
        repo.add_item("item", &users[0], bytes::Bytes::from_static(b"v1"), "init", 0)
            .unwrap();
        let mut expected_head: Vec<u8> = b"v1".to_vec();
        let mut now = 1u64;
        for (op, user_i, content) in ops {
            let user = &users[user_i as usize];
            now += 1;
            match op {
                0 => {
                    let _ = repo.checkout("item", user);
                }
                1 => {
                    if repo
                        .checkin("item", user, bytes::Bytes::from(content.clone()), "c", now)
                        .is_ok()
                    {
                        expected_head = content.into_bytes();
                    }
                }
                _ => {
                    let _ = repo.cancel_checkout("item", user);
                }
            }
        }
        let log = repo.log("item").unwrap();
        for (i, v) in log.iter().enumerate() {
            prop_assert_eq!(v.version, i as u32 + 1);
        }
        prop_assert_eq!(&repo.head("item").unwrap().content[..], &expected_head[..]);
    }

    /// The annotation file codec round-trips any overlay built from
    /// finite coordinates.
    #[test]
    fn annotation_codec_roundtrip(
        strokes in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec((-1e6f32..1e6, -1e6f32..1e6), 0..6)
                    .prop_map(Stroke::Line),
                ((-1e6f32..1e6, -1e6f32..1e6), "[ -~]{0,20}").prop_map(|(at, content)| {
                    Stroke::Text { at, content }
                }),
                ((-1e6f32..1e6, -1e6f32..1e6), (0f32..1e6, 0f32..1e6))
                    .prop_map(|(origin, extent)| Stroke::Rect { origin, extent }),
            ],
            0..10,
        ),
        author in "[a-z]{1,8}",
        page in "[a-z0-9.]{1,12}",
    ) {
        let overlay = AnnotationOverlay {
            author: UserId::new(author),
            page,
            strokes,
        };
        let decoded = AnnotationOverlay::decode(&overlay.encode());
        prop_assert_eq!(decoded, Some(overlay));
    }

    /// Integrity propagation visits every reachable object exactly once
    /// and depths are consistent with BFS layers.
    #[test]
    fn propagation_unique_and_layered(impls in 1usize..5, html in 1usize..5, tests in 0usize..4) {
        let d = IntegrityDiagram::paper_default();
        let root = ObjectRef::new(ObjectKind::Script, "s");
        let alerts = d.propagate(&root, each(|obj, kind| match (obj.kind, kind) {
            (ObjectKind::Script, ObjectKind::Implementation) => {
                (0..impls).map(|i| format!("i{i}")).collect()
            }
            (ObjectKind::Implementation, ObjectKind::HtmlFile) => {
                // Shared pages across implementations: alerted once.
                (0..html).map(|i| format!("h{i}")).collect()
            }
            (ObjectKind::Implementation, ObjectKind::TestRecord) => {
                (0..tests).map(|i| format!("{}-t{i}", obj.name)).collect()
            }
            _ => vec![],
        }));
        let mut seen = std::collections::BTreeSet::new();
        for a in &alerts {
            prop_assert!(seen.insert(a.target.clone()), "duplicate alert");
            prop_assert!(a.depth >= 1);
        }
        prop_assert_eq!(alerts.len(), impls + html + impls * tests);
        // Implementations at depth 1, shared pages and tests at depth 2.
        for a in &alerts {
            match a.target.kind {
                ObjectKind::Implementation => prop_assert_eq!(a.depth, 1),
                ObjectKind::HtmlFile | ObjectKind::TestRecord => prop_assert_eq!(a.depth, 2),
                _ => {}
            }
        }
    }
}

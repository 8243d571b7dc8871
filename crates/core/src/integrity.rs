//! Referential integrity diagram and update-alert propagation (§3).
//!
//! "We maintain a referential integrity diagram. Each link in the
//! diagram connects two objects. If the source object is updated, the
//! system will trigger a message which alerts the user to update the
//! destination object. … For instance, if a script SCI is updated, its
//! corresponding implementations should be updated, which further
//! triggers the changes of one or more HTML programs, zero or more
//! multimedia resources, and some control programs."
//!
//! [`IntegrityDiagram`] is the *kind-level* graph; given a resolver that
//! enumerates the actual children of a concrete object, [`
//! IntegrityDiagram::propagate`] performs the instance-level traversal
//! and returns the alert messages the user must act on.

use crate::hierarchy::{Multiplicity, ObjectKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};

/// One directed link of the diagram: updating `from` obliges updating
/// its `to`-objects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Source kind.
    pub from: ObjectKind,
    /// Destination kind.
    pub to: ObjectKind,
    /// Reference multiplicity on the link.
    pub multiplicity: Multiplicity,
    /// Label on the link (the relationship name).
    pub label: &'static str,
}

/// A concrete object in an alert: kind plus unique name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Kind.
    pub kind: ObjectKind,
    /// Unique name of the instance.
    pub name: String,
}

impl ObjectRef {
    /// Shorthand constructor.
    pub fn new(kind: ObjectKind, name: impl Into<String>) -> Self {
        ObjectRef {
            kind,
            name: name.into(),
        }
    }
}

/// An alert produced by update propagation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alert {
    /// The updated (or transitively affected) object.
    pub source: ObjectRef,
    /// The object whose update the user is alerted to perform.
    pub target: ObjectRef,
    /// Hops from the original update (direct children = 1).
    pub depth: usize,
    /// Human-readable alert message.
    pub message: String,
}

/// The kind-level referential integrity diagram.
#[derive(Debug, Clone, Default)]
pub struct IntegrityDiagram {
    links: Vec<Link>,
}

impl IntegrityDiagram {
    /// An empty diagram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The diagram of the paper's Web document database.
    #[must_use]
    pub fn paper_default() -> Self {
        use Multiplicity::{One, OneOrMore, ZeroOrMore};
        use ObjectKind as K;
        let mut d = Self::new();
        d.add(K::Database, K::Script, OneOrMore, "scripts");
        d.add(K::Script, K::Implementation, OneOrMore, "implementations");
        d.add(K::Implementation, K::HtmlFile, OneOrMore, "HTML files");
        d.add(
            K::Implementation,
            K::ProgramFile,
            ZeroOrMore,
            "program files",
        );
        d.add(
            K::Implementation,
            K::MultimediaResource,
            ZeroOrMore,
            "multimedia resources",
        );
        d.add(
            K::Script,
            K::MultimediaResource,
            ZeroOrMore,
            "verbal descriptions",
        );
        d.add(K::Implementation, K::TestRecord, ZeroOrMore, "test records");
        d.add(K::TestRecord, K::BugReport, ZeroOrMore, "bug reports");
        d.add(K::Implementation, K::Annotation, ZeroOrMore, "annotations");
        d.add(K::Annotation, K::AnnotationFile, One, "annotation file");
        d
    }

    /// Add a link.
    pub fn add(
        &mut self,
        from: ObjectKind,
        to: ObjectKind,
        multiplicity: Multiplicity,
        label: &'static str,
    ) {
        self.links.push(Link {
            from,
            to,
            multiplicity,
            label,
        });
    }

    /// All links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Links leaving `kind`.
    pub fn links_from(&self, kind: ObjectKind) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(move |l| l.from == kind)
    }

    /// Kinds transitively affected by an update of `kind` (excluding
    /// `kind` itself unless reachable through a cycle).
    #[must_use]
    pub fn affected_kinds(&self, kind: ObjectKind) -> BTreeSet<ObjectKind> {
        let mut out = BTreeSet::new();
        let mut queue: VecDeque<ObjectKind> = self.links_from(kind).map(|l| l.to).collect();
        while let Some(k) = queue.pop_front() {
            if out.insert(k) {
                queue.extend(self.links_from(k).map(|l| l.to));
            }
        }
        out
    }

    /// Instance-level propagation: starting from an update of `root`,
    /// walk the diagram breadth-first, one level at a time. `children`
    /// gets a level's `(object, child kind)` questions in walk order and
    /// returns one name list per question: the object's concrete
    /// `kind`-children. Each visited object is alerted once (the first
    /// time it is reached). A resolver that answers each level with one
    /// committed read, as [`crate::WebDocDb::alerts_for`] does, reads
    /// the levels at different cuts, none of them the update's own.
    pub fn propagate(
        &self,
        root: &ObjectRef,
        mut children: impl FnMut(&[(&ObjectRef, ObjectKind)]) -> Vec<Vec<String>>,
    ) -> Vec<Alert> {
        // Objects are named by their index in `alerts` (entry 0 is the root),
        // so only a source copies a name; `visited` maps each reached object's
        // hash, or the next free value on a collision, to its index.
        let mut alerts = vec![Alert {
            source: root.clone(),
            target: root.clone(),
            depth: 0,
            message: String::new(),
        }];
        let hasher = RandomState::new();
        let mut visited = HashMap::from([(hasher.hash_one(root), 0)]);
        let (mut level, mut depth) = (0..1, 0);
        while !level.is_empty() {
            depth += 1;
            // Every object of a level asks at least one question or
            // none; a level of test records asks one each.
            let mut asked: Vec<(usize, &Link)> = Vec::with_capacity(level.len());
            asked.extend(level.flat_map(|at| {
                self.links_from(alerts[at].target.kind)
                    .map(move |l| (at, l))
            }));
            let questions: Vec<_> = asked
                .iter()
                .map(|&(at, l)| (&alerts[at].target, l.to))
                .collect();
            let answers = children(&questions);
            let found = answers.iter().map(Vec::len).sum();
            alerts.reserve(found);
            visited.reserve(found);
            let start = alerts.len();
            for ((at, link), names) in asked.into_iter().zip(answers) {
                for name in names {
                    let target = ObjectRef::new(link.to, name);
                    let mut hash = hasher.hash_one(&target);
                    while visited
                        .get(&hash)
                        .is_some_and(|&i| alerts[i].target != target)
                    {
                        hash = hash.wrapping_add(1);
                    }
                    if visited.contains_key(&hash) {
                        continue;
                    }
                    visited.insert(hash, alerts.len());
                    let source = alerts[at].target.clone();
                    let message = [
                        source.kind.label(),
                        " `",
                        &source.name,
                        "` was updated: review ",
                        link.to.label(),
                        " `",
                        &target.name,
                        "` (",
                        link.label,
                        "^",
                        link.multiplicity.sigil(),
                        ")",
                    ]
                    .concat();
                    alerts.push(Alert {
                        source,
                        target,
                        depth,
                        message,
                    });
                }
            }
            level = start..alerts.len();
        }
        alerts.remove(0);
        alerts
    }

    /// Check that actual reference counts satisfy every link's declared
    /// multiplicity for one source object; returns the violated labels.
    pub fn check_multiplicities(
        &self,
        kind: ObjectKind,
        mut count: impl FnMut(ObjectKind) -> usize,
    ) -> Vec<&'static str> {
        self.links_from(kind)
            .filter(|l| !l.multiplicity.admits(count(l.to)))
            .map(|l| l.label)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ObjectKind as K;

    /// A level resolver that answers each question with `f`.
    fn each(
        mut f: impl FnMut(&ObjectRef, ObjectKind) -> Vec<String>,
    ) -> impl FnMut(&[(&ObjectRef, ObjectKind)]) -> Vec<Vec<String>> {
        move |level| level.iter().map(|&(obj, kind)| f(obj, kind)).collect()
    }

    #[test]
    fn paper_diagram_shape() {
        let d = IntegrityDiagram::paper_default();
        assert_eq!(d.links().len(), 10);
        // The canonical chain from the paper's example.
        let affected = d.affected_kinds(K::Script);
        assert!(affected.contains(&K::Implementation));
        assert!(affected.contains(&K::HtmlFile));
        assert!(affected.contains(&K::ProgramFile));
        assert!(affected.contains(&K::MultimediaResource));
        assert!(affected.contains(&K::BugReport));
        assert!(!affected.contains(&K::Database));
    }

    #[test]
    fn database_update_reaches_everything_below() {
        let d = IntegrityDiagram::paper_default();
        let affected = d.affected_kinds(K::Database);
        assert_eq!(affected.len(), 9); // all kinds except Database itself
    }

    #[test]
    fn leaf_kinds_affect_nothing() {
        let d = IntegrityDiagram::paper_default();
        assert!(d.affected_kinds(K::BugReport).is_empty());
        assert!(d.affected_kinds(K::HtmlFile).is_empty());
        assert!(d.affected_kinds(K::AnnotationFile).is_empty());
    }

    #[test]
    fn propagation_follows_the_papers_example() {
        // "if a script SCI is updated, its corresponding implementations
        // should be updated, which further triggers the changes of one or
        // more HTML programs, zero or more multimedia resources, and some
        // control programs."
        let d = IntegrityDiagram::paper_default();
        let root = ObjectRef::new(K::Script, "intro-ce");
        let alerts = d.propagate(
            &root,
            each(|obj, kind| match (obj.kind, kind) {
                (K::Script, K::Implementation) => vec!["impl-1".into()],
                (K::Implementation, K::HtmlFile) => vec!["a.html".into(), "b.html".into()],
                (K::Implementation, K::ProgramFile) => vec!["quiz.class".into()],
                (K::Implementation, K::MultimediaResource) => vec!["talk.wav".into()],
                _ => vec![],
            }),
        );
        assert_eq!(alerts.len(), 5);
        assert_eq!(
            alerts[0].target,
            ObjectRef::new(K::Implementation, "impl-1")
        );
        assert_eq!(alerts[0].depth, 1);
        assert!(alerts.iter().filter(|a| a.depth == 2).count() == 4);
        assert!(alerts[0].message.contains("script `intro-ce` was updated"));
    }

    #[test]
    fn propagation_visits_each_object_once() {
        // A resource shared by script and implementation must be alerted
        // only once even though two links reach it.
        let d = IntegrityDiagram::paper_default();
        let root = ObjectRef::new(K::Script, "s");
        let alerts = d.propagate(
            &root,
            each(|obj, kind| match (obj.kind, kind) {
                (K::Script, K::Implementation) => vec!["i".into()],
                (K::Script, K::MultimediaResource) => vec!["shared.mpg".into()],
                (K::Implementation, K::MultimediaResource) => vec!["shared.mpg".into()],
                (K::Implementation, K::HtmlFile) => vec!["x.html".into()],
                _ => vec![],
            }),
        );
        let hits = alerts
            .iter()
            .filter(|a| a.target.name == "shared.mpg")
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn propagation_handles_cycles() {
        let mut d = IntegrityDiagram::new();
        d.add(K::Script, K::Implementation, Multiplicity::One, "impl");
        d.add(K::Implementation, K::Script, Multiplicity::One, "back");
        let root = ObjectRef::new(K::Script, "s");
        let alerts = d.propagate(
            &root,
            each(|obj, _| match obj.kind {
                K::Script => vec!["i".into()],
                K::Implementation => vec!["s".into()], // cycles back to root
                _ => vec![],
            }),
        );
        assert_eq!(alerts.len(), 1); // root is not re-alerted
    }

    #[test]
    fn multiplicity_check() {
        let d = IntegrityDiagram::paper_default();
        // An implementation with zero HTML files violates `+`.
        let violated = d.check_multiplicities(K::Implementation, |kind| match kind {
            K::HtmlFile => 0,
            _ => 1,
        });
        assert_eq!(violated, vec!["HTML files"]);
        let ok = d.check_multiplicities(K::Implementation, |kind| match kind {
            K::HtmlFile => 3,
            _ => 0,
        });
        assert!(ok.is_empty());
    }
}

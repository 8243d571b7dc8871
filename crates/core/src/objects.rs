//! The class / instance / reference object model (§4).
//!
//! "A Web document may exist in the database at different physical
//! locations in one of the following three forms: Web Document class,
//! Web Document instance, Web Document reference to instance."
//!
//! * a **class** is declared from an instance and takes custody of the
//!   multimedia data: "the newly created class contains the structure of
//!   the document instance and all multimedia data, such as BLOBs";
//! * the original **instance** "maintains its structure, but pointers to
//!   multimedia data in the class \[are\] used instead of storing the
//!   original BLOBs";
//! * **instantiation** copies the class structure into a new instance
//!   and creates pointers: "the BLOBs are shared by different instances
//!   instantiated from the class";
//! * a **reference** is "a mirror of the instance" living at a remote
//!   station — just a name and the instance's home station.
//!
//! [`ObjectManager`] realizes this on one workstation's
//! [`blobstore::BlobStore`]: blob custody is reference counting, so the
//! paper's disk-saving claim is directly measurable (experiment E4).

use crate::error::{CoreError, Result};
use crate::sci::Sci;
use blobstore::{BlobMeta, BlobStore, MediaKind};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The three forms a Web document takes in the distributed database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DocumentForm {
    /// A reusable template holding structure + BLOBs.
    Class,
    /// A physical document at some station.
    Instance,
    /// A mirror entry pointing at an instance's home station.
    Reference,
}

/// A reusable document class.
#[derive(Debug, Clone)]
pub struct DocumentClass {
    /// Class name.
    pub name: String,
    /// Structure (pages, programs, annotation skeletons).
    pub structure: Sci,
    /// The BLOBs in the class's custody.
    pub blobs: Vec<BlobMeta>,
}

/// A physical document instance.
#[derive(Debug, Clone)]
pub struct DocumentInstance {
    /// Instance name.
    pub name: String,
    /// Structure (owned copy — duplication "involves objects of
    /// relatively smaller sizes, such as HTML files").
    pub structure: Sci,
    /// BLOB descriptors this instance points at.
    pub blobs: Vec<BlobMeta>,
    /// The class this instance was instantiated from (or declared
    /// into), if any.
    pub class: Option<String>,
}

/// A reference: a mirror of an instance stored elsewhere.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocumentRef {
    /// The mirrored instance's name.
    pub name: String,
    /// Station number holding the physical instance.
    pub home_station: u32,
}

/// Storage accounting for the object manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectStats {
    /// Classes held.
    pub classes: usize,
    /// Instances held.
    pub instances: usize,
    /// References held.
    pub references: usize,
    /// Structure bytes duplicated across instances and classes.
    pub structure_bytes: u64,
    /// Physical BLOB bytes on this station.
    pub blob_physical_bytes: u64,
    /// Logical BLOB bytes (what full duplication would have cost).
    pub blob_logical_bytes: u64,
}

/// Manages the documents resident on one workstation.
pub struct ObjectManager {
    store: BlobStore,
    classes: BTreeMap<String, DocumentClass>,
    instances: BTreeMap<String, DocumentInstance>,
    references: BTreeMap<String, DocumentRef>,
}

impl ObjectManager {
    /// Create a manager over the given BLOB store.
    #[must_use]
    pub fn new(store: BlobStore) -> Self {
        ObjectManager {
            store,
            classes: BTreeMap::new(),
            instances: BTreeMap::new(),
            references: BTreeMap::new(),
        }
    }

    /// The underlying BLOB store.
    #[must_use]
    pub fn store(&self) -> &BlobStore {
        &self.store
    }

    fn ensure_fresh(&self, name: &str) -> Result<()> {
        if self.classes.contains_key(name)
            || self.instances.contains_key(name)
            || self.references.contains_key(name)
        {
            return Err(CoreError::InvalidInput(format!(
                "document object `{name}` already exists on this station"
            )));
        }
        Ok(())
    }

    /// Create a brand-new instance with physical multimedia payloads
    /// ("a document instance may contain the physical multimedia data,
    /// if the instance is newly created").
    pub fn create_instance(
        &mut self,
        name: impl Into<String>,
        structure: Sci,
        payloads: Vec<(MediaKind, Bytes)>,
    ) -> Result<&DocumentInstance> {
        let name = name.into();
        self.ensure_fresh(&name)?;
        Ok(self.install(name, structure, payloads))
    }

    /// Store `payloads` and file a classless instance under `name`.
    fn install(
        &mut self,
        name: String,
        structure: Sci,
        payloads: Vec<(MediaKind, Bytes)>,
    ) -> &DocumentInstance {
        let blobs = payloads
            .into_iter()
            .map(|(kind, data)| self.store.store(kind, data))
            .collect();
        let instance = DocumentInstance {
            name: name.clone(),
            structure,
            blobs,
            class: None,
        };
        self.instances.insert(name.clone(), instance);
        &self.instances[&name]
    }

    /// Declare a class from an existing instance. The class takes
    /// custody of the BLOBs; the instance keeps pointers.
    pub fn declare_class(
        &mut self,
        instance_name: &str,
        class_name: impl Into<String>,
    ) -> Result<&DocumentClass> {
        let class_name = class_name.into();
        self.ensure_fresh(&class_name)?;
        let inst = self.instances.get_mut(instance_name).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "no instance `{instance_name}` to declare a class from"
            ))
        })?;
        if inst.class.is_some() {
            return Err(CoreError::InvalidInput(format!(
                "instance `{instance_name}` already belongs to class `{}`",
                inst.class.as_deref().unwrap_or_default()
            )));
        }
        // Custody transfer: the class retains each blob, the instance's
        // original reference is conceptually replaced by a pointer — the
        // physical bytes do not move or duplicate.
        for meta in &inst.blobs {
            self.store.retain(meta.id);
            self.store.release(meta.id);
        }
        inst.class = Some(class_name.clone());
        let class = DocumentClass {
            name: class_name.clone(),
            structure: inst.structure.clone(),
            blobs: inst.blobs.clone(),
        };
        self.classes.insert(class_name.clone(), class);
        Ok(&self.classes[&class_name])
    }

    /// Instantiate a new instance from a class: structure is copied,
    /// BLOB pointers are created (shared, not duplicated).
    pub fn instantiate(
        &mut self,
        class_name: &str,
        instance_name: impl Into<String>,
    ) -> Result<&DocumentInstance> {
        let instance_name = instance_name.into();
        self.ensure_fresh(&instance_name)?;
        let class = self.classes.get(class_name).ok_or_else(|| {
            CoreError::InvalidInput(format!("no class `{class_name}` to instantiate"))
        })?;
        let structure = class.structure.clone();
        let blobs = class.blobs.clone();
        // Each new instance holds a pointer (one refcount) per blob.
        for meta in &blobs {
            self.store.retain(meta.id);
        }
        self.instances.insert(
            instance_name.clone(),
            DocumentInstance {
                name: instance_name.clone(),
                structure,
                blobs,
                class: Some(class_name.to_owned()),
            },
        );
        Ok(&self.instances[&instance_name])
    }

    /// Demote an instance to a reference (the migration step of §4:
    /// "after a lecture is presented, duplicated document instances
    /// migrate to document references"). Releases its BLOB pointers.
    pub fn demote_to_reference(&mut self, name: &str, home_station: u32) -> Result<&DocumentRef> {
        let inst = self
            .instances
            .remove(name)
            .ok_or_else(|| CoreError::InvalidInput(format!("no instance `{name}` to demote")))?;
        for meta in &inst.blobs {
            self.store.release(meta.id);
        }
        self.references.insert(
            name.to_owned(),
            DocumentRef {
                name: name.to_owned(),
                home_station,
            },
        );
        Ok(&self.references[name])
    }

    /// Record a reference broadcast from a remote creation station
    /// ("references to the instance are broadcasted and stored in many
    /// remote stations").
    pub fn add_reference(&mut self, name: impl Into<String>, home_station: u32) -> Result<()> {
        let name = name.into();
        self.ensure_fresh(&name)?;
        self.references
            .insert(name.clone(), DocumentRef { name, home_station });
        Ok(())
    }

    /// Promote a reference back to an instance by materializing the
    /// structure and payloads (the demand-duplication step; payloads
    /// arrive over the network in the distribution layer).
    pub fn promote_reference(
        &mut self,
        name: &str,
        structure: Sci,
        payloads: Vec<(MediaKind, Bytes)>,
    ) -> Result<&DocumentInstance> {
        if self.references.remove(name).is_none() {
            return Err(CoreError::InvalidInput(format!(
                "no reference `{name}` to promote"
            )));
        }
        Ok(self.install(name.to_owned(), structure, payloads))
    }

    /// The form under which `name` is present here, if any.
    #[must_use]
    pub fn form_of(&self, name: &str) -> Option<DocumentForm> {
        if self.instances.contains_key(name) {
            Some(DocumentForm::Instance)
        } else if self.classes.contains_key(name) {
            Some(DocumentForm::Class)
        } else if self.references.contains_key(name) {
            Some(DocumentForm::Reference)
        } else {
            None
        }
    }

    /// Look up an instance.
    #[must_use]
    pub fn instance(&self, name: &str) -> Option<&DocumentInstance> {
        self.instances.get(name)
    }

    /// Look up a class.
    #[must_use]
    pub fn class(&self, name: &str) -> Option<&DocumentClass> {
        self.classes.get(name)
    }

    /// Look up a reference.
    #[must_use]
    pub fn reference(&self, name: &str) -> Option<&DocumentRef> {
        self.references.get(name)
    }

    /// Storage accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> ObjectStats {
        let structure_bytes = self
            .instances
            .values()
            .map(|i| i.structure.structure_bytes())
            .sum::<u64>()
            + self
                .classes
                .values()
                .map(|c| c.structure.structure_bytes())
                .sum::<u64>();
        let blob = self.store.stats();
        ObjectStats {
            classes: self.classes.len(),
            instances: self.instances.len(),
            references: self.references.len(),
            structure_bytes,
            blob_physical_bytes: blob.physical_bytes,
            blob_logical_bytes: blob.logical_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sci::Page;

    fn structure(html: u64) -> Sci {
        Sci::Page(Page {
            path: "index.html".into(),
            html_bytes: html,
            program_bytes: vec![],
            media: vec![],
        })
    }

    fn payloads(n: usize, size: usize) -> Vec<(MediaKind, Bytes)> {
        (0..n)
            .map(|i| (MediaKind::Video, Bytes::from(vec![i as u8 + 1; size])))
            .collect()
    }

    fn mgr() -> ObjectManager {
        ObjectManager::new(BlobStore::new())
    }

    #[test]
    fn create_instance_holds_physical_data() {
        let mut m = mgr();
        m.create_instance("lecture1", structure(1000), payloads(2, 500))
            .unwrap();
        assert_eq!(m.form_of("lecture1"), Some(DocumentForm::Instance));
        let st = m.stats();
        assert_eq!(st.blob_physical_bytes, 1000);
        assert_eq!(st.structure_bytes, 1000);
    }

    #[test]
    fn declare_class_moves_custody_without_copying() {
        let mut m = mgr();
        m.create_instance("lecture1", structure(100), payloads(1, 800))
            .unwrap();
        let before = m.stats().blob_physical_bytes;
        m.declare_class("lecture1", "lecture-class").unwrap();
        let st = m.stats();
        assert_eq!(st.blob_physical_bytes, before, "no physical duplication");
        assert_eq!(st.classes, 1);
        assert_eq!(
            m.instance("lecture1").unwrap().class.as_deref(),
            Some("lecture-class")
        );
        // Logical unchanged too: one holder before (instance), one after
        // (class).
        assert_eq!(st.blob_logical_bytes, 800);
    }

    #[test]
    fn instances_share_class_blobs() {
        let mut m = mgr();
        m.create_instance("orig", structure(100), payloads(2, 1000))
            .unwrap();
        m.declare_class("orig", "cls").unwrap();
        for i in 0..9 {
            m.instantiate("cls", format!("copy-{i}")).unwrap();
        }
        let st = m.stats();
        // 1 original + 9 copies + class structure = 11 structures.
        assert_eq!(st.structure_bytes, 100 * 11);
        // BLOBs: still exactly one physical copy of each.
        assert_eq!(st.blob_physical_bytes, 2000);
        // Logical: class + 9 instances = 10 holders.
        assert_eq!(st.blob_logical_bytes, 20_000);
    }

    #[test]
    fn demote_releases_pointers_but_class_keeps_blobs() {
        let mut m = mgr();
        m.create_instance("orig", structure(100), payloads(1, 700))
            .unwrap();
        m.declare_class("orig", "cls").unwrap();
        m.instantiate("cls", "copy").unwrap();
        m.demote_to_reference("copy", 3).unwrap();
        assert_eq!(m.form_of("copy"), Some(DocumentForm::Reference));
        assert_eq!(m.reference("copy").unwrap().home_station, 3);
        // Class custody keeps the blob alive.
        assert_eq!(m.stats().blob_physical_bytes, 700);
    }

    #[test]
    fn demote_standalone_instance_frees_disk() {
        let mut m = mgr();
        m.create_instance("solo", structure(10), payloads(1, 900))
            .unwrap();
        m.demote_to_reference("solo", 1).unwrap();
        let st = m.stats();
        assert_eq!(st.blob_physical_bytes, 0, "buffer space reclaimed");
        assert_eq!(st.references, 1);
    }

    #[test]
    fn promote_rematerializes() {
        let mut m = mgr();
        m.add_reference("remote-lec", 0).unwrap();
        m.promote_reference("remote-lec", structure(50), payloads(1, 300))
            .unwrap();
        assert_eq!(m.form_of("remote-lec"), Some(DocumentForm::Instance));
        assert_eq!(m.stats().blob_physical_bytes, 300);
    }

    #[test]
    fn name_collisions_rejected() {
        let mut m = mgr();
        m.create_instance("a", structure(1), vec![]).unwrap();
        assert!(m.create_instance("a", structure(1), vec![]).is_err());
        assert!(m.add_reference("a", 0).is_err());
        m.declare_class("a", "c").unwrap();
        assert!(m.declare_class("a", "c2").is_err(), "already classed");
        assert!(m.instantiate("nope", "x").is_err());
        assert!(m.demote_to_reference("nope", 0).is_err());
        assert!(m.promote_reference("nope", structure(1), vec![]).is_err());
    }

    #[test]
    fn identical_payloads_across_documents_deduplicate() {
        // Two unrelated lectures embedding the same video clip share it
        // ("BLOB objects in the same station should be shared as much as
        // possible among different documents", §4).
        let mut m = mgr();
        let clip = Bytes::from(vec![7u8; 4096]);
        m.create_instance(
            "lec-a",
            structure(10),
            vec![(MediaKind::Video, clip.clone())],
        )
        .unwrap();
        m.create_instance("lec-b", structure(10), vec![(MediaKind::Video, clip)])
            .unwrap();
        let st = m.stats();
        assert_eq!(st.blob_physical_bytes, 4096);
        assert_eq!(st.blob_logical_bytes, 8192);
    }
}

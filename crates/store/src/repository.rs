//! The local object repository — the "database based on Magenta" of the
//! paper's servent, reimplemented as a content-addressed store with the
//! metadata index attached.

use crate::digest::ResourceId;
use crate::error::StoreError;
use crate::index::{IndexStats, MetadataIndex, PreparedField};
use crate::query::Query;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use up2p_xml::{Document, ElementBuilder, ParseXmlError, XPath};

/// A stored shared object: its community, canonical XML and the metadata
/// fields that were extracted for indexing. The XML text is the only
/// form of the object kept; [`StoredObject::document`] parses it on
/// demand.
#[derive(Debug, Clone)]
pub struct StoredObject {
    /// Content-derived identifier.
    pub id: ResourceId,
    /// Community the object belongs to.
    pub community: String,
    /// Canonical (compact) XML text — on the servent's publish path the
    /// same allocation the payload plane serves.
    pub xml: Arc<str>,
    /// Extracted `(field path, value)` metadata — the same allocation the
    /// metadata index (and, on the publish path, the network record)
    /// holds.
    pub fields: Arc<[(String, String)]>,
}

impl StoredObject {
    /// Parses the object document from its canonical XML.
    ///
    /// # Errors
    ///
    /// Returns [`ParseXmlError`] when the stored text does not parse
    /// (never for objects inserted through this crate, which all come
    /// from a serialized or parse-checked document).
    pub fn document(&self) -> Result<Document, ParseXmlError> {
        Document::parse(&self.xml)
    }

    /// Value of the first field whose path ends in `leaf`, used as a
    /// display title.
    pub fn field(&self, leaf: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(p, _)| crate::query::field_matches(p, leaf))
            .map(|(_, v)| v.as_str())
    }
}

/// Field paths compiled once into XPath selectors, so extracting an
/// object's index fields does no path formatting or XPath parsing.
///
/// A path `pattern/name` selects every `/pattern/name` element's text
/// content; a path that does not compile selects nothing.
#[derive(Debug, Clone, Default)]
pub struct FieldSelectors {
    selectors: Vec<(String, Option<XPath>)>,
}

impl FieldSelectors {
    /// Compiles `paths`, in order.
    pub fn new(paths: &[String]) -> FieldSelectors {
        let selectors = paths
            .iter()
            .map(|path| {
                let xp = XPath::parse(&format!("/{}", path.trim_matches('/'))).ok();
                (path.clone(), xp)
            })
            .collect();
        FieldSelectors { selectors }
    }

    /// The paths, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.selectors.iter().map(|(p, _)| p.as_str())
    }

    /// Extracts `(path, trimmed text)` for every non-empty selected
    /// element, in path order then document order.
    pub fn extract(&self, doc: &Document) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (path, xp) in &self.selectors {
            let Some(Ok(nodes)) = xp.as_ref().map(|xp| xp.select_nodes(doc, doc.root())) else {
                continue;
            };
            for n in nodes {
                let value = doc.text_content(n);
                let trimmed = value.trim();
                if !trimmed.is_empty() {
                    out.push((path.clone(), trimmed.to_string()));
                }
            }
        }
        out
    }
}

/// How [`Repository::load_dir_report`] loaded a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// `true` when the durable-store manifest fast path ran (segment +
    /// WAL replay, no re-tokenization); `false` for the legacy
    /// XML-per-object scan.
    pub from_manifest: bool,
    /// Objects loaded.
    pub objects: usize,
    /// Recovery detail when the fast path ran.
    pub recovery: Option<crate::durable::RecoveryReport>,
}

/// Content-addressed repository of XML objects with metadata search.
///
/// ```
/// use up2p_store::{Repository, Query};
///
/// let mut repo = Repository::new();
/// let id = repo.insert_xml(
///     "patterns",
///     "<pattern><name>Observer</name><category>behavioral</category></pattern>",
///     &["pattern/name".into(), "pattern/category".into()],
/// )?;
/// let hits = repo.search(Some("patterns"), &Query::any_keyword("observer"));
/// assert_eq!(hits[0].id, id);
/// # Ok::<(), up2p_store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Repository {
    objects: BTreeMap<ResourceId, StoredObject>,
    by_community: BTreeMap<String, BTreeSet<ResourceId>>,
    index: MetadataIndex,
}

impl Repository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the values of the given field paths from an object
    /// document. A path `pattern/name` selects every `/pattern/name`
    /// element's text content.
    ///
    /// Compiles the paths on every call; callers extracting many objects
    /// with one path set keep a [`FieldSelectors`] instead.
    pub fn extract_fields(doc: &Document, paths: &[String]) -> Vec<(String, String)> {
        FieldSelectors::new(paths).extract(doc)
    }

    /// Inserts an object from XML text, extracting and indexing the given
    /// field paths. Returns the content-derived id; inserting the same
    /// object twice is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidXml`] when the text does not parse.
    pub fn insert_xml(
        &mut self,
        community: &str,
        xml: &str,
        index_paths: &[String],
    ) -> Result<ResourceId, StoreError> {
        let doc = Document::parse(xml)?;
        Ok(self.insert_doc(community, doc, index_paths))
    }

    /// Inserts a parsed object document.
    pub fn insert_doc(
        &mut self,
        community: &str,
        doc: Document,
        index_paths: &[String],
    ) -> ResourceId {
        let fields = Self::extract_fields(&doc, index_paths);
        self.insert_with_fields(community, doc, fields)
    }

    /// Inserts with pre-extracted fields (used by the indexer-stylesheet
    /// path, where the community's filter stylesheet chose the fields).
    /// The document is serialized once and dropped; only its canonical
    /// XML is stored.
    pub fn insert_with_fields(
        &mut self,
        community: &str,
        doc: Document,
        fields: impl Into<Arc<[(String, String)]>>,
    ) -> ResourceId {
        let xml: Arc<str> = doc.to_xml_string().into();
        let id = ResourceId::for_object(community, &xml);
        self.insert_canonical(community, id.clone(), xml, fields);
        id
    }

    /// Inserts an object whose canonical XML and content id the caller
    /// already holds — the servent's publish path, which serializes and
    /// hashes once and shares the XML allocation with the payload plane
    /// and the field allocation with the network record. `id` must be
    /// `ResourceId::for_object(community, &xml)`; it is not re-derived.
    pub fn insert_canonical(
        &mut self,
        community: &str,
        id: ResourceId,
        xml: Arc<str>,
        fields: impl Into<Arc<[(String, String)]>>,
    ) {
        let fields = fields.into();
        self.index.insert_shared(id.clone(), Arc::clone(&fields));
        self.place(StoredObject { id, community: community.to_string(), xml, fields });
    }

    /// Inserts a canonical object with pre-extracted fields *and* their
    /// pre-tokenized form (see [`crate::prepare_fields`]) — the
    /// durable-store path, where tokenization already happened when the
    /// WAL record was built and must not run again. As with
    /// [`insert_canonical`](Self::insert_canonical), `id` is taken as
    /// given.
    pub fn insert_prepared(
        &mut self,
        community: &str,
        id: ResourceId,
        xml: Arc<str>,
        fields: impl Into<Arc<[(String, String)]>>,
        prep: &[PreparedField],
    ) {
        let fields = fields.into();
        self.index.insert_tokenized(id.clone(), Arc::clone(&fields), prep);
        self.place(StoredObject { id, community: community.to_string(), xml, fields });
    }

    /// Bulk [`insert_prepared`](Self::insert_prepared) with deferred
    /// posting-list merging ([`MetadataIndex::insert_batch_tokenized`]) —
    /// the segment/WAL recovery load path. Items are `(id, community,
    /// canonical XML, fields, prepared fields)`.
    pub fn insert_prepared_batch<I>(&mut self, items: I)
    where
        I: IntoIterator<
            Item = (ResourceId, String, Arc<str>, Vec<(String, String)>, Vec<PreparedField>),
        >,
    {
        let (objects, prepared): (Vec<StoredObject>, Vec<Vec<PreparedField>>) = items
            .into_iter()
            .map(|(id, community, xml, fields, prep)| {
                (StoredObject { id, community, xml, fields: fields.into() }, prep)
            })
            .unzip();
        self.index.insert_batch_tokenized(
            objects
                .iter()
                .zip(prepared)
                .map(|(o, prep)| (o.id.clone(), Arc::clone(&o.fields), prep)),
        );
        for obj in objects {
            self.place(obj);
        }
    }

    /// Bulk-inserts parsed documents, extracting and indexing the given
    /// field paths. The metadata index defers posting-list merging across
    /// the whole load (see [`MetadataIndex::insert_batch`]), which is the
    /// fast path for loading large corpora. Returns the content-derived
    /// ids in input order.
    pub fn insert_batch<I>(
        &mut self,
        community: &str,
        docs: I,
        index_paths: &[String],
    ) -> Vec<ResourceId>
    where
        I: IntoIterator<Item = Document>,
    {
        let selectors = FieldSelectors::new(index_paths);
        let objects: Vec<StoredObject> = docs
            .into_iter()
            .map(|doc| {
                let fields = selectors.extract(&doc).into();
                let xml: Arc<str> = doc.to_xml_string().into();
                let id = ResourceId::for_object(community, &xml);
                StoredObject { id, community: community.to_string(), xml, fields }
            })
            .collect();
        self.index
            .insert_batch(objects.iter().map(|o| (o.id.clone(), Arc::clone(&o.fields))));
        let ids = objects.iter().map(|o| o.id.clone()).collect();
        for obj in objects {
            self.place(obj);
        }
        ids
    }

    fn place(&mut self, obj: StoredObject) {
        self.by_community.entry(obj.community.clone()).or_default().insert(obj.id.clone());
        self.objects.insert(obj.id.clone(), obj);
    }

    /// Fetches an object by id.
    pub fn get(&self, id: &ResourceId) -> Option<&StoredObject> {
        self.objects.get(id)
    }

    /// `true` when the id is stored locally.
    pub fn contains(&self, id: &ResourceId) -> bool {
        self.objects.contains_key(id)
    }

    /// Removes an object, returning it if present.
    pub fn remove(&mut self, id: &ResourceId) -> Option<StoredObject> {
        let obj = self.objects.remove(id)?;
        self.index.remove(id);
        if let Some(set) = self.by_community.get_mut(&obj.community) {
            set.remove(id);
            if set.is_empty() {
                self.by_community.remove(&obj.community);
            }
        }
        Some(obj)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Communities with at least one object, in sorted order.
    pub fn communities(&self) -> impl Iterator<Item = &str> {
        self.by_community.keys().map(String::as_str)
    }

    /// Ids of all objects in a community.
    pub fn ids_in(&self, community: &str) -> BTreeSet<ResourceId> {
        self.by_community.get(community).cloned().unwrap_or_default()
    }

    /// All stored objects, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        self.objects.values()
    }

    /// Runs a metadata query, optionally restricted to a community.
    /// Results are in id order (deterministic).
    pub fn search(&self, community: Option<&str>, query: &Query) -> Vec<&StoredObject> {
        let ids = self.index.execute(query);
        ids.iter()
            .filter_map(|id| self.objects.get(id))
            .filter(|o| community.is_none_or(|c| o.community == c))
            .collect()
    }

    /// Runs a CMIP-style filter text query.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidQuery`] when the filter is malformed.
    pub fn search_cmip(
        &self,
        community: Option<&str>,
        filter: &str,
    ) -> Result<Vec<&StoredObject>, StoreError> {
        let q = crate::cmip::parse_cmip(filter)?;
        Ok(self.search(community, &q))
    }

    /// Runs an XPath query against every object document (the "richer
    /// query language" of the paper's future work): an object matches
    /// when the expression evaluates to a truthy value on its document.
    /// Each candidate is parsed from its stored XML for the evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidQuery`] when the expression is
    /// malformed.
    pub fn xpath_search(
        &self,
        community: Option<&str>,
        expr: &str,
    ) -> Result<Vec<&StoredObject>, StoreError> {
        let xp = XPath::parse(expr).map_err(|e| StoreError::InvalidQuery(e.to_string()))?;
        let mut out = Vec::new();
        for obj in self.objects.values() {
            if let Some(c) = community {
                if obj.community != c {
                    continue;
                }
            }
            let Ok(doc) = obj.document() else { continue };
            let truthy = xp.eval_root(&doc).map(|v| v.into_bool()).unwrap_or(false);
            if truthy {
                out.push(obj);
            }
        }
        Ok(out)
    }

    /// Index size statistics (experiment E7).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// Persists every object under `dir` (one XML file per object).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures.
    pub fn save_dir(&self, dir: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        for obj in self.objects.values() {
            let mut fields = ElementBuilder::new("fields");
            for (path, value) in obj.fields.iter() {
                fields = fields.child(
                    ElementBuilder::new("field").attr("path", path.clone()).text(value.clone()),
                );
            }
            let wrapper = ElementBuilder::new("stored")
                .attr("community", obj.community.clone())
                .child(fields)
                .build();
            // splice the object document in as a sibling of <fields>
            let mut wrapper = wrapper;
            let root = wrapper
                .document_element()
                .ok_or_else(|| StoreError::Corrupt("built wrapper has no root".into()))?;
            let holder = wrapper.create_element("object".into());
            wrapper.append_child(root, holder);
            let obj_doc = Document::parse(&obj.xml)?;
            let obj_root = obj_doc.document_element().ok_or_else(|| {
                StoreError::Corrupt(format!("stored object `{}` has no root element", obj.id))
            })?;
            let copied = wrapper.import_subtree(&obj_doc, obj_root);
            wrapper.append_child(holder, copied);
            let path = dir.join(format!("{}.xml", obj.id));
            std::fs::write(path, wrapper.to_xml_string())?;
        }
        Ok(())
    }

    /// Loads a repository from `dir`: when the directory holds a durable
    /// store manifest, recovers through the segment + WAL fast path
    /// (pre-tokenized postings, no tokenizer, no per-object XML wrapper
    /// parsing); otherwise falls back to scanning the legacy one-XML-
    /// file-per-object layout written by [`Repository::save_dir`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] when a file does not follow its
    /// format, plus I/O and XML errors.
    pub fn load_dir(dir: &Path) -> Result<Repository, StoreError> {
        Ok(Self::load_dir_report(dir)?.0)
    }

    /// [`load_dir`](Self::load_dir) plus a [`LoadReport`] saying which
    /// path ran — the hook the persistence regression tests use to prove
    /// the manifest fast path is taken (and stays index-rebuild-free).
    ///
    /// # Errors
    ///
    /// As [`load_dir`](Self::load_dir).
    pub fn load_dir_report(dir: &Path) -> Result<(Repository, LoadReport), StoreError> {
        if crate::segment::read_manifest(dir)?.is_some() {
            let (repo, recovery) = crate::durable::DurableRepository::recover(dir)?;
            let objects = repo.len();
            return Ok((repo, LoadReport { from_manifest: true, objects, recovery: Some(recovery) }));
        }
        let repo = Self::load_dir_xml(dir)?;
        let objects = repo.len();
        Ok((repo, LoadReport { from_manifest: false, objects, recovery: None }))
    }

    /// The legacy loader: parse every `<stored>` wrapper file and rebuild
    /// the index from scratch (re-tokenizing). Kept as the fallback for
    /// directories written before the durable store existed — and as the
    /// baseline experiment E12 measures recovery against.
    fn load_dir_xml(dir: &Path) -> Result<Repository, StoreError> {
        let mut repo = Repository::new();
        let mut entries: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "xml"))
            .collect();
        entries.sort();
        for path in entries {
            let text = std::fs::read_to_string(&path)?;
            let doc = Document::parse(&text)?;
            let root = doc
                .document_element()
                .ok_or_else(|| StoreError::Corrupt(format!("{}: empty", path.display())))?;
            if doc.local_name(root) != Some("stored") {
                return Err(StoreError::Corrupt(format!(
                    "{}: root is not <stored>",
                    path.display()
                )));
            }
            let community = doc
                .attr(root, "community")
                .ok_or_else(|| {
                    StoreError::Corrupt(format!("{}: missing community", path.display()))
                })?
                .to_string();
            let mut fields = Vec::new();
            if let Some(fields_el) = doc.child_named(root, "fields") {
                for f in doc.children_named(fields_el, "field") {
                    let Some(p) = doc.attr(f, "path") else { continue };
                    fields.push((p.to_string(), doc.text_content(f)));
                }
            }
            let holder = doc.child_named(root, "object").ok_or_else(|| {
                StoreError::Corrupt(format!("{}: missing <object>", path.display()))
            })?;
            let inner = doc.child_elements(holder).next().ok_or_else(|| {
                StoreError::Corrupt(format!("{}: empty <object>", path.display()))
            })?;
            let mut obj_doc = Document::new();
            let copied = obj_doc.import_subtree(&doc, inner);
            let obj_root = obj_doc.root();
            obj_doc.append_child(obj_root, copied);
            repo.insert_with_fields(&community, obj_doc, fields);
        }
        Ok(repo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBSERVER: &str = "<pattern><name>Observer</name><category>behavioral</category>\
                            <intent>notify dependents automatically</intent></pattern>";
    const FACTORY: &str = "<pattern><name>Abstract Factory</name><category>creational</category>\
                           <intent>families of related objects</intent></pattern>";

    fn paths() -> Vec<String> {
        vec!["pattern/name".into(), "pattern/category".into(), "pattern/intent".into()]
    }

    fn sample() -> Repository {
        let mut r = Repository::new();
        r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        r.insert_xml("patterns", FACTORY, &paths()).unwrap();
        r.insert_xml(
            "songs",
            "<song><title>So What</title><artist>Miles Davis</artist></song>",
            &["song/title".into(), "song/artist".into()],
        )
        .unwrap();
        r
    }

    #[test]
    fn insert_is_idempotent_and_content_addressed() {
        let mut r = Repository::new();
        let a = r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        let b = r.insert_xml("patterns", OBSERVER, &paths()).unwrap();
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
        // whitespace differences do not change identity (canonical form)
        let c = r
            .insert_xml(
                "patterns",
                "<pattern><name>Observer</name><category>behavioral</category><intent>notify dependents automatically</intent></pattern>",
                &paths(),
            )
            .unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn search_scoped_by_community() {
        let r = sample();
        let hits = r.search(Some("patterns"), &Query::any_keyword("observer"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Observer"));
        // "miles" is in songs, not patterns
        assert!(r.search(Some("patterns"), &Query::any_keyword("miles")).is_empty());
        assert_eq!(r.search(None, &Query::any_keyword("miles")).len(), 1);
    }

    #[test]
    fn cmip_search() {
        let r = sample();
        let hits = r.search_cmip(Some("patterns"), "(&(category=creational)(name=*factory*))")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Abstract Factory"));
        assert!(r.search_cmip(None, "(bad").is_err());
    }

    #[test]
    fn xpath_search_works_per_document() {
        let r = sample();
        let hits = r
            .xpath_search(Some("patterns"), "/pattern[category='behavioral']")
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Observer"));
        let hits = r.xpath_search(None, "//artist[contains(., 'Davis')]").unwrap();
        assert_eq!(hits.len(), 1);
        assert!(r.xpath_search(None, "///").is_err());
    }

    #[test]
    fn remove_updates_all_structures() {
        let mut r = sample();
        let id = r.search(Some("patterns"), &Query::any_keyword("observer"))[0].id.clone();
        let removed = r.remove(&id).unwrap();
        assert_eq!(removed.field("name"), Some("Observer"));
        assert!(r.get(&id).is_none());
        assert!(r.search(None, &Query::any_keyword("observer")).is_empty());
        assert_eq!(r.ids_in("patterns").len(), 1);
        assert!(r.remove(&id).is_none());
    }

    #[test]
    fn insert_batch_agrees_with_sequential_insert() {
        let docs: Vec<Document> =
            [OBSERVER, FACTORY].iter().map(|x| Document::parse(x).unwrap()).collect();
        let mut batched = Repository::new();
        let ids = batched.insert_batch("patterns", docs.clone(), &paths());
        let mut sequential = Repository::new();
        let seq_ids: Vec<_> =
            docs.into_iter().map(|d| sequential.insert_doc("patterns", d, &paths())).collect();
        assert_eq!(ids, seq_ids);
        assert_eq!(batched.len(), 2);
        for q in [
            Query::any_keyword("factory"),
            Query::eq("category", "behavioral"),
            Query::and([Query::eq("category", "creational"), Query::any_keyword("families")]),
        ] {
            let b: Vec<_> = batched.search(None, &q).iter().map(|o| o.id.clone()).collect();
            let s: Vec<_> = sequential.search(None, &q).iter().map(|o| o.id.clone()).collect();
            assert_eq!(b, s, "on {q}");
        }
        let (bs, ss) = (batched.index_stats(), sequential.index_stats());
        assert_eq!(bs, ss);
        // batch-loaded objects can be removed and searched like any other
        batched.remove(&ids[0]);
        assert!(batched.search(None, &Query::any_keyword("observer")).is_empty());
    }

    #[test]
    fn communities_listed() {
        let r = sample();
        let cs: Vec<&str> = r.communities().collect();
        assert_eq!(cs, vec!["patterns", "songs"]);
    }

    #[test]
    fn extract_fields_pulls_text() {
        let doc = Document::parse(OBSERVER).unwrap();
        let fields = Repository::extract_fields(&doc, &paths());
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("pattern/name".to_string(), "Observer".to_string()));
    }

    #[test]
    fn extract_fields_handles_repeats_and_missing() {
        let doc = Document::parse(
            "<song><tag>jazz</tag><tag>modal</tag></song>",
        )
        .unwrap();
        let fields =
            Repository::extract_fields(&doc, &["song/tag".into(), "song/absent".into()]);
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].1, "jazz");
        assert_eq!(fields[1].1, "modal");
    }

    #[test]
    fn persistence_round_trip() {
        let r = sample();
        let dir = std::env::temp_dir().join(format!("up2p-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        r.save_dir(&dir).unwrap();
        let loaded = Repository::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), r.len());
        // same ids, same search results
        let hits = loaded.search(Some("patterns"), &Query::any_keyword("factory"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].field("name"), Some("Abstract Factory"));
        let ids_before: Vec<_> = r.iter().map(|o| o.id.clone()).collect();
        let ids_after: Vec<_> = loaded.iter().map(|o| o.id.clone()).collect();
        assert_eq!(ids_before, ids_after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_files() {
        let dir =
            std::env::temp_dir().join(format!("up2p-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.xml"), "<notstored/>").unwrap();
        assert!(matches!(Repository::load_dir(&dir), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_stats_exposed() {
        let r = sample();
        assert_eq!(r.index_stats().objects, 3);
    }
}

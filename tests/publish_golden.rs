//! Golden equivalence for the single-pass publish.
//!
//! `Servent::publish` serializes an object once, reuses the key
//! `SharedObject::new` derived, and extracts fields with selectors the
//! community compiled when it was built. These tests pin its results to
//! the formulas the multi-pass publish used — `ResourceId::for_object`
//! over a fresh `to_xml_string()`, and `XPath::parse` of `/{path}` per
//! indexed path — byte for byte, over the GoF corpus and over random
//! track values.

use proptest::prelude::*;
use up2p::net::{
    build_network, NetStats, PeerId, PeerNetwork, ProtocolKind, ResourceRecord,
    RetrieveOutcome, SearchOutcome,
};
use up2p::sim::corpus::{pattern_community, pattern_values, GOF_PATTERNS};
use up2p::store::{Query, ResourceId};
use up2p::xml::{Document, XPath};
use up2p::{Community, FieldKind, PayloadPlane, SchemaBuilder, Servent, SharedObject};

/// A network that records every published record and otherwise
/// delegates to a real substrate.
struct Recording {
    inner: Box<dyn PeerNetwork + Send>,
    published: Vec<ResourceRecord>,
}

impl PeerNetwork for Recording {
    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
    fn peer_count(&self) -> usize {
        self.inner.peer_count()
    }
    fn is_alive(&self, peer: PeerId) -> bool {
        self.inner.is_alive(peer)
    }
    fn set_alive(&mut self, peer: PeerId, alive: bool) {
        self.inner.set_alive(peer, alive)
    }
    fn publish(&mut self, provider: PeerId, record: ResourceRecord) {
        self.published.push(record.clone());
        self.inner.publish(provider, record)
    }
    fn unpublish(&mut self, provider: PeerId, key: &str) {
        self.inner.unpublish(provider, key)
    }
    fn search(&mut self, origin: PeerId, community: &str, query: &Query) -> SearchOutcome {
        self.inner.search(origin, community, query)
    }
    fn retrieve(&mut self, origin: PeerId, provider: PeerId, key: &str) -> RetrieveOutcome {
        self.inner.retrieve(origin, provider, key)
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// The multi-pass extraction: format and parse one XPath per path, per
/// object.
fn old_extract(doc: &Document, paths: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for path in paths {
        let Ok(xp) = XPath::parse(&format!("/{}", path.trim_matches('/'))) else { continue };
        let Ok(nodes) = xp.select_nodes(doc, doc.root()) else { continue };
        for n in nodes {
            let value = doc.text_content(n);
            if !value.trim().is_empty() {
                out.push((path.clone(), value.trim().to_string()));
            }
        }
    }
    out
}

/// Publishes `values` as a new object of `community` through a servent
/// and checks every product of the publish against the old formulas.
fn check_publish(community: &Community, values: &[(&str, &str)]) -> Result<(), TestCaseError> {
    let mut net =
        Recording { inner: build_network(ProtocolKind::Napster, 3, 7), published: Vec::new() };
    let mut plane = PayloadPlane::new();
    let mut servent = Servent::new(PeerId(1));
    servent.join(community.clone());
    let object = servent.create_object(&community.id, values).expect("valid values");

    let old_xml = object.doc.to_xml_string();
    let old_key = ResourceId::for_object(&community.id, &old_xml).to_string();
    let old_fields = old_extract(&object.doc, &community.indexed_paths());
    prop_assert_eq!(&object.key, &old_key);
    let rebuilt = SharedObject::new(&community.id, object.doc.clone(), Vec::new());
    prop_assert_eq!(&rebuilt.key, &old_key);

    let key = servent.publish(&mut net, &mut plane, &object).expect("member publishes");
    prop_assert_eq!(&key, &old_key);

    // the repository entry
    let id = ResourceId::from_hex(&old_key).expect("keys are 40-hex");
    let stored = servent.repository().get(&id).expect("stored under its content key");
    prop_assert_eq!(&*stored.xml, old_xml.as_str());
    prop_assert_eq!(&stored.fields[..], &old_fields[..]);
    let reparsed = stored.document().expect("stored XML parses").to_xml_string();
    prop_assert_eq!(reparsed, old_xml.clone());

    // the network record
    prop_assert_eq!(net.published.len(), 1);
    let record = &net.published[0];
    prop_assert_eq!(&record.key, &old_key);
    prop_assert_eq!(&record.community, &community.id);
    prop_assert_eq!(&record.fields[..], &old_fields[..]);

    // the payload plane round trip
    let fetched = plane.fetch(&old_key).expect("fetchable");
    prop_assert_eq!(&fetched.key, &old_key);
    prop_assert_eq!(&fetched.community_id, &community.id);
    prop_assert_eq!(fetched.xml(), old_xml.clone());
    prop_assert_eq!(ResourceId::for_object(&community.id, &fetched.xml()).to_string(), old_key);
    prop_assert_eq!(old_extract(&fetched.doc, &community.indexed_paths()), old_fields);
    Ok(())
}

#[test]
fn gof_corpus_publishes_byte_identically() {
    let community = pattern_community();
    for p in &GOF_PATTERNS {
        check_publish(&community, &pattern_values(p))
            .unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
    }
}

#[test]
fn compiled_selectors_agree_with_per_call_parsing_on_the_corpus() {
    let community = pattern_community();
    let paths = community.indexed_paths();
    let servent = {
        let mut s = Servent::new(PeerId(0));
        s.join(community.clone());
        s
    };
    for p in &GOF_PATTERNS {
        let object = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        let old = old_extract(&object.doc, &paths);
        assert_eq!(community.extract_fields(&object.doc), old, "{}", p.name);
        assert_eq!(up2p::store::Repository::extract_fields(&object.doc, &paths), old);
    }
}

fn track_community() -> Community {
    let mut b = SchemaBuilder::new("track");
    b.field(FieldKind::text("serial"))
        .field(FieldKind::text("title").searchable())
        .field(FieldKind::text("artist").searchable())
        .field(FieldKind::enumeration("genre", ["jazz", "rock", "folk"]).searchable())
        .field(FieldKind::text("year").searchable());
    Community::from_builder("tracks", "Music tracks", "music", "music", "Napster", &b).unwrap()
}

proptest! {
    #[test]
    fn random_tracks_publish_byte_identically(
        serial in "[0-9]{1,6}",
        title in "[a-zA-Z]\\PC{0,24}",
        artist in "[a-zA-Z][a-zA-Z&<>'\" ]{0,15}",
        genre in 0usize..3,
        year in " ?[0-9]{1,4} ?",
    ) {
        let community = track_community();
        let genre = ["jazz", "rock", "folk"][genre];
        let values = [
            ("serial", serial.as_str()),
            ("title", title.as_str()),
            ("artist", artist.as_str()),
            ("genre", genre),
            ("year", year.as_str()),
        ];
        check_publish(&community, &values)?;
    }
}

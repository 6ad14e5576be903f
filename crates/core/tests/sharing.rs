//! Regression tests for per-peer state that must not grow with the
//! number of peers: community definitions are shared, not copied, and
//! stored objects keep their XML text only.

use up2p_core::{Community, PayloadPlane, Servent, ROOT_COMMUNITY_ID};
use up2p_net::{build_network, PeerId, ProtocolKind};
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_store::{ResourceId, StoredObject};

fn song_community() -> Community {
    let mut b = SchemaBuilder::new("song");
    b.field(FieldKind::text("title").searchable())
        .field(FieldKind::text("artist").searchable());
    Community::from_builder("songs", "d", "k", "c", "Napster", &b).unwrap()
}

#[test]
fn servents_share_one_root_schema() {
    let servents: Vec<Servent> = (0..1_000).map(|p| Servent::new(PeerId(p))).collect();
    let root = Community::root();
    for s in &servents {
        let theirs = s.community(ROOT_COMMUNITY_ID).expect("born in the root community");
        assert!(std::ptr::eq(theirs.schema(), root.schema()));
        assert!(std::ptr::eq(theirs.schema_xsd(), root.schema_xsd()));
    }
}

#[test]
fn cloning_a_community_shares_its_definition() {
    let c = song_community();
    let copy = c.clone();
    assert!(std::ptr::eq(c.schema(), copy.schema()));
    assert!(std::ptr::eq(c.schema_xsd(), copy.schema_xsd()));
    // joining stores a handle on the same definition
    let mut s = Servent::new(PeerId(0));
    let joined = s.join(c.clone());
    assert!(std::ptr::eq(joined.schema(), c.schema()));
    assert_eq!(joined.indexed_paths(), vec!["song/title", "song/artist"]);
}

#[test]
fn stored_objects_hold_xml_not_a_document() {
    let c = song_community();
    let mut net = build_network(ProtocolKind::Napster, 2, 1);
    let mut plane = PayloadPlane::new();
    let mut s = Servent::new(PeerId(1));
    s.join(c.clone());
    let obj = s.create_object(&c.id, &[("title", "So What"), ("artist", "Miles Davis")]).unwrap();
    let key = s.publish(&mut *net, &mut plane, &obj).unwrap();
    let stored = s.repository().get(&ResourceId::from_hex(&key).unwrap()).unwrap();
    // exhaustive: a field added to `StoredObject` (a cached DOM, say)
    // stops this from compiling
    let StoredObject { id, community, xml, fields } = stored;
    assert_eq!(id.as_hex(), key);
    assert_eq!(community, &c.id);
    assert_eq!(&**xml, obj.xml());
    assert_eq!(fields.len(), 2);
    // the document is parsed on demand, from the stored text
    assert_eq!(stored.document().unwrap().to_xml_string(), obj.xml());
    // and the payload plane serves the same text
    let served = plane.fetch(&key).unwrap();
    assert_eq!(served.xml(), obj.xml());
}

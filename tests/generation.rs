//! E2 property test: the generative pipeline works for *any* community
//! schema (Fig. 2's claim) — random schemas produce working forms, valid
//! instances and renderable HTML.

use proptest::prelude::*;
use up2p::{Community, FieldKind, FormKind, FormModel, SchemaBuilder};

#[derive(Debug, Clone)]
enum Kind {
    Text,
    Int,
    Uri,
    Enum(Vec<String>),
}

fn kind_strategy() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Text),
        Just(Kind::Int),
        Just(Kind::Uri),
        prop::collection::vec("[a-z]{2,6}", 2..5).prop_map(|mut vs| {
            vs.sort();
            vs.dedup();
            Kind::Enum(vs)
        }),
    ]
}

fn fields_strategy() -> impl Strategy<Value = Vec<(String, Kind, bool, bool)>> {
    prop::collection::vec(
        ("[a-z][a-z0-9]{1,8}", kind_strategy(), any::<bool>(), any::<bool>()),
        1..10,
    )
    .prop_map(|mut v| {
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v.dedup_by(|a, b| a.0 == b.0);
        v
    })
}

fn build_community(fields: &[(String, Kind, bool, bool)]) -> Community {
    let mut b = SchemaBuilder::new("object");
    for (name, kind, searchable, optional) in fields {
        let mut f = match kind {
            Kind::Text => FieldKind::text(name.clone()),
            Kind::Int => FieldKind::integer(name.clone()),
            Kind::Uri => FieldKind::uri(name.clone()),
            Kind::Enum(vs) => FieldKind::enumeration(name.clone(), vs.clone()),
        };
        if *searchable {
            f = f.searchable();
        }
        if *optional {
            f = f.optional();
        }
        b.field(f);
    }
    Community::from_builder("generated", "d", "k", "c", "", &b).expect("builder output parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated schema yields working create/search forms whose
    /// filled instances validate and render.
    #[test]
    fn pipeline_works_for_any_schema(fields in fields_strategy(), seed in 0u64..1000) {
        let community = build_community(&fields);
        let create = FormModel::derive(&community, FormKind::Create);
        prop_assert_eq!(create.fields.len(), fields.len());

        // fill every field with a type-appropriate value
        let values: Vec<(String, String)> = fields
            .iter()
            .map(|(name, kind, _, _)| {
                let v = match kind {
                    Kind::Text => format!("value {seed}"),
                    Kind::Int => format!("{}", seed as i64 - 100),
                    Kind::Uri => format!("up2p:thing:{seed}"),
                    Kind::Enum(vs) => vs[seed as usize % vs.len()].clone(),
                };
                (format!("object/{name}"), v)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            values.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let doc = create.fill("object", &borrowed).expect("all fields provided");
        prop_assert!(community.validate(&doc).is_ok(), "doc: {}", doc.to_xml_string());

        // both forms render to HTML through the default stylesheets
        let html = up2p::core::stylesheets::render_form(&create.to_document(), None).unwrap();
        prop_assert!(html.contains("up2p-create"));
        let search = FormModel::derive(&community, FormKind::Search);
        let html = up2p::core::stylesheets::render_form(&search.to_document(), None).unwrap();
        prop_assert!(html.contains("up2p-search"));

        // the object view renders
        let view = up2p::core::stylesheets::render_view(&doc, None).unwrap();
        prop_assert!(view.contains("up2p-view"));

        // index extraction agrees between native and XSLT filter paths
        let xsl = up2p::core::stylesheets::default_index_xsl(&community);
        let via_xslt = up2p::core::stylesheets::apply_index_style(&xsl, &doc).unwrap();
        let via_native =
            up2p::store::Repository::extract_fields(&doc, &community.indexed_paths());
        prop_assert_eq!(via_xslt, via_native);
    }

    /// The community object of any generated community validates against
    /// the root (Fig. 3) schema and round-trips identity.
    #[test]
    fn any_community_is_a_valid_root_object(fields in fields_strategy()) {
        let community = build_community(&fields);
        let root = Community::root();
        let obj = community.to_object();
        prop_assert!(root.validate(&obj).is_ok());
        let rebuilt = Community::from_object(&obj, community.schema_xsd()).unwrap();
        prop_assert_eq!(rebuilt.id, community.id);
    }
}

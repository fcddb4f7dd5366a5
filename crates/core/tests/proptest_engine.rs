//! Property-based tests on engine invariants:
//!
//! 1. the **item codec** round-trips arbitrary items exactly;
//! 2. **local and distributed execution agree** on arbitrary data for the
//!    paper's query shapes (the core §5.5/§5.8 seamless-switching claim);
//! 3. arbitrary query text never panics the front end.

use proptest::prelude::*;
use rumble_core::item::{decode_items, encode_items, Item};
use rumble_core::Rumble;
use sparklite::{SparkliteConf, SparkliteContext};

fn arb_item() -> impl Strategy<Value = Item> {
    let leaf = prop_oneof![
        Just(Item::Null),
        any::<bool>().prop_map(Item::Boolean),
        any::<i64>().prop_map(Item::Integer),
        any::<f64>().prop_map(Item::Double),
        "-?(0|[1-9][0-9]{0,9})\\.[0-9]{1,9}"
            .prop_map(|s| Item::Decimal(s.parse().expect("grammatical decimal"))),
        "[a-zA-Z0-9 _\\-\u{e9}]{0,10}".prop_map(Item::str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Item::array),
            prop::collection::vec(("[a-z]{1,5}", inner), 0..5).prop_map(|pairs| {
                Item::object_from(pairs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect())
            }),
        ]
    })
}

/// Structural equality that distinguishes NaN-aware doubles (Item's
/// PartialEq treats numerics numerically, so NaN != NaN; compare by
/// serialized form instead).
fn same(a: &Item, b: &Item) -> bool {
    a.serialize() == b.serialize() && a.type_name() == b.type_name()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_arbitrary_items(items in prop::collection::vec(arb_item(), 0..8)) {
        let enc = encode_items(&items);
        let back = decode_items(&enc).unwrap();
        prop_assert_eq!(back.len(), items.len());
        for (a, b) in items.iter().zip(&back) {
            prop_assert!(same(a, b), "mismatch: {} vs {}", a.serialize(), b.serialize());
        }
    }

    #[test]
    fn shuffle_block_codec_roundtrips_atomic_pairs(
        items in prop::collection::vec(
            prop_oneof![
                Just(Item::Null),
                any::<bool>().prop_map(Item::Boolean),
                any::<i64>().prop_map(Item::Integer),
                "[a-zA-Z0-9 _\\-\u{e9}]{0,12}".prop_map(Item::str),
            ],
            0..32,
        ),
    ) {
        // The distinct-values shuffle ships `(GroupKey, Item)` pairs as
        // plain item-codec blocks (satellite: one codec, no second wire
        // format); decode must recover both the items and their keys.
        use rumble_core::dist::DistinctPairCodec;
        use rumble_core::item::{group_key, GroupKey};
        use sparklite::CacheCodec;

        let pairs: Vec<(GroupKey, Item)> = items
            .iter()
            .map(|i| (group_key(std::slice::from_ref(i)).unwrap(), i.clone()))
            .collect();
        let bytes = DistinctPairCodec.encode(&pairs);
        let back = DistinctPairCodec.decode(&bytes).unwrap();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn front_end_never_panics(src in "\\PC{0,80}") {
        let _ = rumble_core::syntax::parse_program(&src);
    }

    #[test]
    fn front_end_never_panics_on_jsoniqish(
        src in "(for|let|return|\\$x|\\$\\$|where|group by|order by|[0-9]|\"a\"|\\{|\\}|\\(|\\)|\\[|\\]|,|\\.|:=| ){0,40}"
    ) {
        let _ = rumble_core::compiler::compile_query(&src);
    }

    /// The analyzer and the compiler agree on static validity: a program
    /// compiles iff `analyze` reports no errors (warnings never block).
    #[test]
    fn analyze_errors_match_compilation(
        src in "(for|let|return|\\$x|\\$\\$|where|group by|order by|[0-9]|\"a\"|\\{|\\}|\\(|\\)|\\[|\\]|,|\\.|:=| ){0,40}"
    ) {
        let has_errors = rumble_core::analyze(&src).iter().any(|d| d.is_error());
        let compiled = rumble_core::compiler::compile_query(&src);
        prop_assert_eq!(
            has_errors,
            compiled.is_err(),
            "analyze and compile disagree on {:?}",
            src
        );
    }

    /// Programs that pass analysis with no errors never raise the static
    /// error codes (undefined variable/function) at runtime — the analyzer
    /// resolves the same scopes the evaluator walks.
    #[test]
    fn analyze_clean_programs_never_raise_static_codes(
        def in "[xyz]",
        used in "[wxyz]",
        f in prop_oneof![Just("count"), Just("sum"), Just("exists"), Just("mystery")],
        n in 1i64..5,
        shape in 0usize..5,
    ) {
        let q = match shape {
            0 => format!("let ${def} := {n} return ${used} + 1"),
            1 => format!("for ${def} in (1 to {n}) return ${used} * 2"),
            2 => format!("let ${def} := {n} return {f}((${used}, 1))"),
            3 => format!("for ${def} in (1 to {n}) where ${used} gt 1 return ${def}"),
            _ => format!("declare variable ${def} := {n}; {f}((${used}, ${def}))"),
        };
        let clean = !rumble_core::analyze(&q).iter().any(|d| d.is_error());
        if clean {
            let r = Rumble::default_local();
            if let Err(e) = r.run(&q) {
                prop_assert!(
                    e.code != "XPST0008" && e.code != "XPST0017",
                    "analyze-clean program {:?} raised {} at runtime: {}",
                    q, e.code, e.message
                );
            }
        }
    }
}

proptest! {
    // Cluster runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_and_distributed_agree(
        rows in prop::collection::vec((0u8..6, -50i64..50, any::<bool>(), 0u8..6), 1..60),
        parts in 1usize..5,
    ) {
        let sc = SparkliteContext::new(SparkliteConf::default().with_executors(2));
        let r = Rumble::new(sc);
        let mut lines = String::new();
        for (k, v, flag, m) in &rows {
            // Messy fields: `extra` is sometimes a bool, sometimes absent;
            // `m` is absent, an integer, a numeric string, null, an array
            // or a decimal.
            let m = match m {
                0 => String::new(),
                1 => format!(", \"m\": {v}"),
                2 => format!(", \"m\": \"{k}\""),
                3 => ", \"m\": null".to_string(),
                4 => format!(", \"m\": [{k}, {v}, {k}]"),
                _ => ", \"m\": 1.5".to_string(),
            };
            let extra = if *flag { ", \"extra\": true" } else { "" };
            lines.push_str(&format!("{{\"k\": {k}, \"v\": {v}{extra}{m}}}\n"));
        }
        r.sparklite().hdfs().delete("/prop.json");
        r.hdfs_put("/prop.json", &lines).unwrap();
        let _ = parts;

        for (dist_q, local_q, sorted) in [
            // filter
            (
                r#"for $r in json-file("hdfs:///prop.json") where $r.v ge 0 return $r.v"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a where $r.v ge 0 return $r.v"#,
                false,
            ),
            // group with count + sum over a messy field
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   group by $k := $r.k
                   order by $k
                   return [$k, count($r), count(for $x in $r where $x.extra return $x)]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   group by $k := $r.k
                   order by $k
                   return [$k, count($r), count(for $x in $r where $x.extra return $x)]"#,
                false,
            ),
            // multi-key sort with count clause
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   order by $r.k ascending, $r.v descending
                   count $c
                   return [$c, $r.k, $r.v]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   order by $r.k ascending, $r.v descending
                   count $c
                   return [$c, $r.k, $r.v]"#,
                false,
            ),
            // §3.4-style cleaning chain over the messy field, fused into
            // one per-item pass
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $m := if ($r.m instance of string) then ($r.m cast as integer)
                             else if ($r.m instance of array) then $r.m[]
                             else $r.m
                   where exists($m) or $r.extra
                   let $tags := distinct-values(($m, $r.k))
                   let $drop := $r.v instance of string or $r.v lt -40
                   where not($drop)
                   return { "k": $r.k, "m": [ $m ], "tags": [ $tags ], "big": $r.v gt 10 }"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $m := if ($r.m instance of string) then ($r.m cast as integer)
                             else if ($r.m instance of array) then $r.m[]
                             else $r.m
                   where exists($m) or $r.extra
                   let $tags := distinct-values(($m, $r.k))
                   let $drop := $r.v instance of string or $r.v lt -40
                   where not($drop)
                   return { "k": $r.k, "m": [ $m ], "tags": [ $tags ], "big": $r.v gt 10 }"#,
                false,
            ),
            // lets before a mixed-type group key, with count-only ($r, $x)
            // and materialized ($w) non-grouping variables; groups come out
            // in partition order, so compare as multisets
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $g := if ($r.m instance of array) then () else $r.m
                   let $w := $r.v
                   let $x := $r.extra
                   group by $key := $g
                   return [ $key, count($r), count($x), sum($w) ]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $g := if ($r.m instance of array) then () else $r.m
                   let $w := $r.v
                   let $x := $r.extra
                   group by $key := $g
                   return [ $key, count($r), count($x), sum($w) ]"#,
                true,
            ),
            // let + where before a multi-key sort, then count; $u is never
            // read and is not carried through the sort
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $s := $r.v * 2
                   let $u := $r.m
                   where $s ne 0
                   order by $r.k ascending, $s descending
                   count $c
                   return [$c, $r.k, $s]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $s := $r.v * 2
                   let $u := $r.m
                   where $s ne 0
                   order by $r.k ascending, $s descending
                   count $c
                   return [$c, $r.k, $s]"#,
                false,
            ),
            // a let that only feeds a where, then a path on the item itself
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $a := $r.v * 2
                   where $a gt 10
                   return $r.k"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $a := $r.v * 2
                   where $a gt 10
                   return $r.k"#,
                false,
            ),
            // a redeclared variable, through a fused return and a sort
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $r := $r.v
                   where $r gt 0
                   return $r * 10"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $r := $r.v
                   where $r gt 0
                   return $r * 10"#,
                false,
            ),
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $k := $r.k
                   let $r := $r.v
                   order by $r descending, $k
                   return [$k, $r]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $k := $r.k
                   let $r := $r.v
                   order by $r descending, $k
                   return [$k, $r]"#,
                false,
            ),
            // sort keys that read variables no later clause reads, on the
            // fused and on the per-clause frame path (nested for)
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $s := $r.v * 2
                   order by $s, $r.k
                   return $r.k"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $s := $r.v * 2
                   order by $s, $r.k
                   return $r.k"#,
                false,
            ),
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   for $x in ($r.v, $r.k)
                   order by $x descending, $r.v, $r.k
                   return [$r.k, $r.v]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   for $x in ($r.v, $r.k)
                   order by $x descending, $r.v, $r.k
                   return [$r.k, $r.v]"#,
                false,
            ),
            // a nested for after a let stays on the per-clause frame path
            (
                r#"for $r in json-file("hdfs:///prop.json")
                   let $vals := ($r.v, $r.k)
                   for $x in $vals
                   where $x gt 0
                   return [$r.k, $x]"#,
                r#"let $a := json-file("hdfs:///prop.json")
                   for $r in $a
                   let $vals := ($r.v, $r.k)
                   for $x in $vals
                   where $x gt 0
                   return [$r.k, $x]"#,
                false,
            ),
        ] {
            let dist = r.compile(dist_q).unwrap();
            prop_assert!(dist.is_distributed().unwrap());
            let local = r.compile(local_q).unwrap();
            prop_assert!(!local.is_distributed().unwrap());
            let mut a: Vec<String> =
                dist.collect().unwrap().iter().map(|i| i.serialize()).collect();
            let mut b: Vec<String> =
                local.collect().unwrap().iter().map(|i| i.serialize()).collect();
            if sorted {
                a.sort();
                b.sort();
            }
            prop_assert_eq!(a, b, "divergence on {}", dist_q);
        }
        // Which physical path each prefix shape takes: `let`/`where`
        // chains fuse into the item scan, a nested `for` does not.
        let mode = |q: &str| {
            let plan = r.analyze_profile(q).unwrap().plan;
            plan.lines().next().unwrap_or_default().to_string()
        };
        let fused = mode(
            r#"for $r in json-file("hdfs:///prop.json") let $r := $r.v where $r gt 0 return $r"#,
        );
        prop_assert!(fused.contains("mode=rdd (fused)"), "{}", fused);
        let nested = mode(
            r#"for $r in json-file("hdfs:///prop.json")
               let $vals := ($r.v, $r.k) for $x in $vals return $x"#,
        );
        prop_assert!(nested.contains("mode=dataframe"), "{}", nested);
    }
}

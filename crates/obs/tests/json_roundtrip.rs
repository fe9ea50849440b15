//! `parse(to_string_pretty(v)) == v` over arbitrary [`Value`] trees.
//!
//! The law holds for canonical trees: finite floats (non-finite ones
//! print as `null`) and [`Value::Int`] only for negative integers, since
//! the parser returns every non-negative integer as [`Value::UInt`].

use bba_obs::json::{parse, to_string_pretty, Value};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits).prop_filter("finite", |x| x.is_finite()),
        -1e6..1e6f64,
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::MIN_POSITIVE),
        Just(f64::EPSILON),
        Just(5e-324),
        Just(-0.0),
        Just(0.1 + 0.2),
        Just(2.0),
    ]
}

fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\n'),
        Just('\t'),
        (0..0x20u32).prop_filter_map("control", char::from_u32),
        (0x20..0x7fu32).prop_filter_map("ascii", char::from_u32),
        Just('é'),
        Just('€'),
        Just('𝄞'),
        (0..0x11_0000u32).prop_filter_map("scalar value", char::from_u32),
    ];
    prop::collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| if i < 0 { Value::Int(i) } else { Value::UInt(i as u64) }),
        any::<u64>().prop_map(Value::UInt),
        Just(Value::Int(i64::MIN)),
        Just(Value::UInt(u64::MAX)),
        finite_f64().prop_map(Value::Float),
        text().prop_map(Value::Str),
    ]
}

/// A tree at most `depth` containers deep; each level nests with
/// probability 1/2 and may be empty.
fn tree(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return leaf().boxed();
    }
    (0..4u32)
        .prop_flat_map(move |pick| match pick {
            0 | 1 => leaf().boxed(),
            2 => prop::collection::vec(tree(depth - 1), 0..4).prop_map(Value::Seq).boxed(),
            _ => {
                prop::collection::vec((text(), tree(depth - 1)), 0..4).prop_map(Value::Map).boxed()
            }
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printed_trees_parse_back_identically(v in tree(6)) {
        let printed = to_string_pretty(&v);
        prop_assert_eq!(parse(&printed), Ok(v), "printed:\n{}", printed);
    }

    #[test]
    fn floats_roundtrip_bit_exactly(x in finite_f64()) {
        let Ok(Value::Float(back)) = parse(&to_string_pretty(&Value::Float(x))) else {
            panic!("{x:e} did not re-parse as a float");
        };
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }
}

#[test]
fn deep_nesting_roundtrips() {
    let mut v = Value::Seq(Vec::new());
    for i in 0..200 {
        v = if i % 2 == 0 {
            Value::Map(vec![(format!("k{i}"), v), ("e".into(), Value::Seq(Vec::new()))])
        } else {
            Value::Seq(vec![v, Value::Map(Vec::new())])
        };
    }
    assert_eq!(parse(&to_string_pretty(&v)), Ok(v));
}

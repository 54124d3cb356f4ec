//! Property tests on execution invariants: relational algebra laws
//! that must hold for every generated table and predicate.
//!
//! The value pools deliberately include the two key-encoding hazards
//! the engine once got wrong: integers straddling 2⁵³ (which share an
//! `f64`) and strings embedding U+001F (the old composite-key
//! separator), so the GROUP BY, DISTINCT and IN-subquery laws run over
//! them.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use nlidb_engine::{execute, ColumnType, Database, TableSchema, Value};
use nlidb_sqlir::ast::{BinOp, Expr};
use nlidb_sqlir::QueryBuilder;

const BIG: i64 = 1 << 53;

/// Text pools for `c` and `k`. Besides plain colors they hold (c, k)
/// pairs whose keys coincide once joined across a U+001F separator:
/// `("a\u{1f}", "b")` vs `("a", "\u{1f}b")` for raw strings, and
/// `("a\u{1f}\u{3}b", "c")` vs `("a", "b\u{1f}\u{3}c")` for
/// [`Value::group_key`]s, which carry a U+0003 text prefix.
const COLORS: [&str; 8] = [
    "red",
    "green",
    "blue",
    "cyan",
    "a",
    "a\u{1f}",
    "\u{1f}b",
    "a\u{1f}\u{3}b",
];
const KEYS: [&str; 5] = ["b", "c", "a\u{1f}", "\u{1f}b", "b\u{1f}\u{3}c"];

#[derive(Debug, Clone)]
struct Row {
    a: i64,
    b: f64,
    c: String,
    k: String,
    null_b: bool,
}

fn tricky_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -20i64..20,
        prop::sample::select(vec![BIG, BIG + 1, BIG - 1, -BIG, -(BIG + 1)]),
    ]
}

fn text(pool: &[&'static str]) -> impl Strategy<Value = String> {
    prop::sample::select(pool.to_vec()).prop_map(str::to_string)
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        tricky_int(),
        -5i32..5,
        text(&COLORS),
        text(&KEYS),
        prop::bool::weighted(0.15),
    )
        .prop_map(|(a, b, c, k, null_b)| Row {
            a,
            b: b as f64 / 2.0,
            c,
            k,
            null_b,
        })
}

fn build_db(rows: &[Row]) -> Database {
    let mut db = Database::new("prop");
    db.create_table(
        TableSchema::new("t")
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Float)
            .column("c", ColumnType::Text)
            .column("k", ColumnType::Text),
    )
    .unwrap();
    for r in rows {
        db.insert(
            "t",
            vec![
                Value::Int(r.a),
                if r.null_b {
                    Value::Null
                } else {
                    Value::Float(r.b)
                },
                Value::Str(r.c.clone()),
                Value::Str(r.k.clone()),
            ],
        )
        .unwrap();
    }
    db
}

fn predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-20i64..20).prop_map(|v| Expr::col("a").binary(BinOp::Gt, Expr::int(v))),
        (-20i64..20).prop_map(|v| Expr::col("a").binary(BinOp::LtEq, Expr::int(v))),
        (-3i64..3).prop_map(|v| Expr::col("b").binary(BinOp::Lt, Expr::int(v))),
        prop::sample::select(vec!["red", "green", "blue", "purple"])
            .prop_map(|c| Expr::col("c").eq(Expr::str(c))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filter_returns_subset(rows in prop::collection::vec(row_strategy(), 0..40), pred in predicate_strategy()) {
        let db = build_db(&rows);
        let all = execute(&db, &QueryBuilder::from_table("t").build()).unwrap();
        let filtered = execute(
            &db,
            &QueryBuilder::from_table("t").and_where(pred).build(),
        )
        .unwrap();
        prop_assert!(filtered.rows.len() <= all.rows.len());
    }

    #[test]
    fn predicate_and_negation_partition_nonnull(rows in prop::collection::vec(row_strategy(), 0..40), v in -20i64..20) {
        // For a NULL-free column, P and NOT P partition the rows.
        let db = build_db(&rows);
        let p = Expr::col("a").binary(BinOp::Gt, Expr::int(v));
        let not_p = Expr::col("a").binary(BinOp::LtEq, Expr::int(v));
        let with = execute(&db, &QueryBuilder::from_table("t").and_where(p).build()).unwrap();
        let without =
            execute(&db, &QueryBuilder::from_table("t").and_where(not_p).build()).unwrap();
        prop_assert_eq!(with.rows.len() + without.rows.len(), rows.len());
    }

    #[test]
    fn limit_truncates(rows in prop::collection::vec(row_strategy(), 0..40), n in 0u64..50) {
        let db = build_db(&rows);
        let limited =
            execute(&db, &QueryBuilder::from_table("t").limit(n).build()).unwrap();
        prop_assert!(limited.rows.len() <= n as usize);
        prop_assert_eq!(limited.rows.len(), rows.len().min(n as usize));
    }

    #[test]
    fn count_star_matches_row_count(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let db = build_db(&rows);
        let counted = execute(
            &db,
            &QueryBuilder::from_table("t").select_expr(Expr::count_star(), None).build(),
        )
        .unwrap();
        prop_assert_eq!(counted.rows[0][0].clone(), Value::Int(rows.len() as i64));
    }

    #[test]
    fn order_by_sorts(rows in prop::collection::vec(row_strategy(), 0..40), asc in any::<bool>()) {
        let db = build_db(&rows);
        let sorted = execute(
            &db,
            &QueryBuilder::from_table("t")
                .select_col("a")
                .order_by(Expr::col("a"), asc)
                .build(),
        )
        .unwrap();
        for w in sorted.rows.windows(2) {
            let ord = w[0][0].sort_cmp(&w[1][0]);
            if asc {
                prop_assert!(ord != std::cmp::Ordering::Greater);
            } else {
                prop_assert!(ord != std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn distinct_leq_total_and_idempotent(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let db = build_db(&rows);
        let all = execute(
            &db,
            &QueryBuilder::from_table("t").select_col("c").build(),
        )
        .unwrap();
        let distinct = execute(
            &db,
            &QueryBuilder::from_table("t").distinct().select_col("c").build(),
        )
        .unwrap();
        prop_assert!(distinct.rows.len() <= all.rows.len());
        let colors: HashSet<&str> = rows.iter().map(|r| r.c.as_str()).collect();
        prop_assert_eq!(distinct.rows.len(), colors.len());
        // Idempotence: DISTINCT of DISTINCT output changes nothing.
        let mut seen = HashSet::new();
        for r in &distinct.rows {
            prop_assert!(seen.insert(r[0].group_key()), "duplicate after DISTINCT");
        }
    }

    #[test]
    fn group_count_sums_to_total(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let db = build_db(&rows);
        let grouped = execute(
            &db,
            &QueryBuilder::from_table("t")
                .select_col("c")
                .select_expr(Expr::count_star(), None)
                .group_by(Expr::col("c"))
                .build(),
        )
        .unwrap();
        let sum: i64 = grouped
            .rows
            .iter()
            .map(|r| match r[1] {
                Value::Int(n) => n,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(sum, rows.len() as i64);
        let colors: HashSet<&str> = rows.iter().map(|r| r.c.as_str()).collect();
        prop_assert_eq!(grouped.rows.len(), colors.len());
    }

    #[test]
    fn composite_keys_never_merge(rows in prop::collection::vec(row_strategy(), 0..40)) {
        // One group / one DISTINCT row per distinct (c, k) pair and per
        // distinct `a`, and an equi-join on (c, k) matching only equal
        // pairs, even when joining c and k across U+001F or rounding a
        // through f64 would make two keys coincide.
        let db = build_db(&rows);
        let run = |sql: &str| execute(&db, &nlidb_sqlir::parse_query(sql).unwrap()).unwrap();
        let mut pair_counts: HashMap<(&str, &str), usize> = HashMap::new();
        for r in &rows {
            *pair_counts.entry((r.c.as_str(), r.k.as_str())).or_default() += 1;
        }
        let self_join: usize = pair_counts.values().map(|n| n * n).sum();
        prop_assert_eq!(
            run("SELECT x.a FROM t AS x JOIN t AS y ON x.c = y.c AND x.k = y.k").rows.len(),
            self_join
        );
        let ints: HashSet<i64> = rows.iter().map(|r| r.a).collect();
        prop_assert_eq!(run("SELECT c, k, COUNT(*) FROM t GROUP BY c, k").rows.len(), pair_counts.len());
        prop_assert_eq!(run("SELECT DISTINCT c, k FROM t").rows.len(), pair_counts.len());
        prop_assert_eq!(run("SELECT a, COUNT(*) FROM t GROUP BY a").rows.len(), ints.len());
        prop_assert_eq!(run("SELECT DISTINCT a FROM t").rows.len(), ints.len());
    }

    #[test]
    fn sum_ignores_nulls(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let db = build_db(&rows);
        let summed = execute(
            &db,
            &QueryBuilder::from_table("t")
                .select_expr(
                    Expr::agg(nlidb_sqlir::ast::AggFunc::Sum, Expr::col("b")),
                    None,
                )
                .build(),
        )
        .unwrap();
        let expected: f64 = rows.iter().filter(|r| !r.null_b).map(|r| r.b).sum();
        let any_non_null = rows.iter().any(|r| !r.null_b);
        match &summed.rows[0][0] {
            Value::Null => prop_assert!(!any_non_null),
            v => {
                let got = v.as_f64().unwrap();
                prop_assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
            }
        }
    }

    #[test]
    fn in_subquery_equals_join_semantics(rows in prop::collection::vec(row_strategy(), 1..30)) {
        // SELECT * FROM t WHERE c IN (SELECT c FROM t WHERE a > 0)
        // must equal filtering on colors that have a positive-a row.
        let db = build_db(&rows);
        let q = nlidb_sqlir::parse_query(
            "SELECT * FROM t WHERE c IN (SELECT c FROM t WHERE a > 0)",
        )
        .unwrap();
        let rs = execute(&db, &q).unwrap();
        let positive_colors: HashSet<&str> = rows
            .iter()
            .filter(|r| r.a > 0)
            .map(|r| r.c.as_str())
            .collect();
        let expected = rows.iter().filter(|r| positive_colors.contains(r.c.as_str())).count();
        prop_assert_eq!(rs.rows.len(), expected);
        // Across columns: U+001F-bearing strings match only themselves.
        let q = nlidb_sqlir::parse_query("SELECT * FROM t WHERE c IN (SELECT k FROM t)").unwrap();
        let rs = execute(&db, &q).unwrap();
        let ks: HashSet<&str> = rows.iter().map(|r| r.k.as_str()).collect();
        let expected = rows.iter().filter(|r| ks.contains(r.c.as_str())).count();
        prop_assert_eq!(rs.rows.len(), expected);
    }
}

//! The `ask-scaled` data: every foreign-key-bearing table replicated.

use nlidb_engine::{Database, Value};

/// Copy `db`, adding `factor − 1` copies of every row of each table
/// that declares a foreign key, through [`Database::insert`]. Copies
/// offset the integer primary key by a multiple of (largest key + 1),
/// so keys stay unique; foreign-key columns are copied unchanged and
/// referenced tables are never replicated, so every reference still
/// resolves. Fails on a replicated table whose primary key is not an
/// integer.
pub fn replicate_fact_tables(db: &Database, factor: usize) -> Result<Database, String> {
    let mut out = Database::new(db.name.clone());
    for table in db.tables() {
        let schema = &table.schema;
        out.create_table(schema.clone())
            .map_err(|e| e.to_string())?;
        out.insert_all(&schema.name, table.rows.iter().cloned())
            .map_err(|e| e.to_string())?;
        if schema.foreign_keys.is_empty() || factor <= 1 {
            continue;
        }
        let pk = schema
            .primary_key
            .as_deref()
            .and_then(|pk| schema.column_index(pk));
        let mut stride = 0i64;
        if let Some(pk) = pk {
            for row in &table.rows {
                match &row[pk] {
                    Value::Int(k) => stride = stride.max(k + 1),
                    other => {
                        return Err(format!(
                            "{}: primary key {other:?} is not an integer",
                            schema.name
                        ))
                    }
                }
            }
        }
        for copy in 1..factor as i64 {
            for row in &table.rows {
                let mut row = row.clone();
                if let Some(pk) = pk {
                    if let Value::Int(k) = row[pk] {
                        row[pk] = Value::Int(k + copy * stride);
                    }
                }
                out.insert(&schema.name, row).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_benchdata::{all_domains, derive_slots, spider_like};
    use nlidb_engine::execute;
    use std::collections::HashSet;

    #[test]
    fn replicas_keep_keys_unique_and_references_intact() {
        for db in all_domains(42) {
            let scaled = replicate_fact_tables(&db, 10).expect("integer keys");
            for table in db.tables() {
                let s = &table.schema;
                let big = scaled.table(&s.name).expect("table copied");
                let want = if s.foreign_keys.is_empty() { 1 } else { 10 };
                assert_eq!(big.rows.len(), table.rows.len() * want, "{}", s.name);
                if let Some(pk) = s.primary_key.as_deref().and_then(|c| s.column_index(c)) {
                    let keys: HashSet<String> =
                        big.rows.iter().map(|r| r[pk].group_key()).collect();
                    assert_eq!(keys.len(), big.rows.len(), "{}: duplicate key", s.name);
                }
                for fk in &s.foreign_keys {
                    let parent = scaled.table(&fk.references_table).expect("parent");
                    let pc = parent
                        .schema
                        .column_index(&fk.references_column)
                        .expect("col");
                    let targets: HashSet<String> =
                        parent.rows.iter().map(|r| r[pc].group_key()).collect();
                    let c = s.column_index(&fk.column).expect("fk column");
                    for row in &big.rows {
                        assert!(
                            row[c].is_null() || targets.contains(&row[c].group_key()),
                            "{}.{} dangles",
                            s.name,
                            fk.column
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gold_sql_still_executes_on_the_replica() {
        for db in all_domains(42) {
            let scaled = replicate_fact_tables(&db, 10).expect("integer keys");
            for pair in spider_like(&derive_slots(&db), 7, 24) {
                assert!(execute(&scaled, &pair.sql).is_ok(), "{}", pair.sql);
            }
        }
    }

    #[test]
    fn replication_is_deterministic() {
        let db = nlidb_benchdata::retail_database(42);
        let a = replicate_fact_tables(&db, 10).expect("integer keys");
        let b = replicate_fact_tables(&db, 10).expect("integer keys");
        for (x, y) in a.tables().zip(b.tables()) {
            assert_eq!(x.rows, y.rows);
        }
        assert_eq!(
            replicate_fact_tables(&db, 1).expect("copy").total_rows(),
            db.total_rows()
        );
    }
}

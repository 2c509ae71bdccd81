//! SQL semantics against hand-computed answers on tiny hand-built tables,
//! executed under BF-CBO so the Bloom machinery is always in the loop.

use std::sync::Arc;

use bfq::catalog::Catalog;
use bfq::common::{DataType, Datum};
use bfq::prelude::*;
use bfq::storage::{Chunk, Column, Field, Schema, StrData, Table};

fn mini_catalog() -> Catalog {
    let mut cat = Catalog::new();

    // dept(id PK, name)
    let dept_schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ]));
    let dept = Table::new(
        "dept",
        dept_schema,
        vec![Chunk::new(vec![
            Arc::new(Column::Int64(vec![1, 2, 3], None)),
            Arc::new(Column::Utf8(
                ["eng", "sales", "hr"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<StrData>(),
                None,
            )),
        ])
        .unwrap()],
    )
    .unwrap();
    let dept_id = cat.register(dept, vec![0]).unwrap();

    // emp(id PK, dept_id FK, salary, hired)
    let emp_schema = Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("dept_id", DataType::Int64),
        Field::new("salary", DataType::Float64),
        Field::new("hired", DataType::Date),
    ]));
    let emp = Table::new(
        "emp",
        emp_schema,
        vec![Chunk::new(vec![
            Arc::new(Column::Int64(vec![10, 11, 12, 13, 14], None)),
            Arc::new(Column::Int64(vec![1, 1, 2, 2, 3], None)),
            Arc::new(Column::Float64(
                vec![100.0, 200.0, 150.0, 50.0, 300.0],
                None,
            )),
            Arc::new(Column::Date(vec![0, 100, 200, 300, 400], None)),
        ])
        .unwrap()],
    )
    .unwrap();
    let emp_id = cat.register(emp, vec![0]).unwrap();
    cat.add_foreign_key(
        bfq::common::ColumnId::new(emp_id, 1),
        bfq::common::ColumnId::new(dept_id, 0),
    )
    .unwrap();
    cat
}

fn session() -> Connection {
    Engine::over_catalog(
        Arc::new(mini_catalog()),
        EngineConfig::default()
            .with_bloom_mode(BloomMode::Cbo)
            .with_dop(2),
    )
    .connect()
}

fn ints(result: &QueryResult, col: usize) -> Vec<i64> {
    (0..result.chunk.rows())
        .map(|i| result.chunk.row(i)[col].as_i64().unwrap())
        .collect()
}

#[test]
fn inner_join_with_group_and_order() {
    let s = session();
    let r = s
        .run_sql(
            "select name, count(*) as n, sum(salary) as total
             from emp, dept where dept_id = dept.id
             group by name order by total desc",
        )
        .unwrap();
    assert_eq!(r.column_names, vec!["name", "n", "total"]);
    let names: Vec<String> = (0..r.chunk.rows())
        .map(|i| r.chunk.row(i)[0].as_str().unwrap().to_string())
        .collect();
    // totals: eng 300, sales 200, hr 300 → desc with stable tie order.
    assert_eq!(r.chunk.rows(), 3);
    let totals: Vec<f64> = (0..3)
        .map(|i| r.chunk.row(i)[2].as_f64().unwrap())
        .collect();
    assert!(totals[0] >= totals[1] && totals[1] >= totals[2]);
    assert!(names.contains(&"eng".to_string()));
}

#[test]
fn having_and_avg() {
    let s = session();
    let r = s
        .run_sql(
            "select dept_id, avg(salary) as a from emp
             group by dept_id having avg(salary) > 120 order by dept_id",
        )
        .unwrap();
    // dept 1 avg 150, dept 2 avg 100 (excluded), dept 3 avg 300.
    assert_eq!(ints(&r, 0), vec![1, 3]);
}

#[test]
fn semi_and_anti_subqueries() {
    let s = session();
    let r = s
        .run_sql(
            "select dept.id from dept where exists
             (select emp.id from emp where dept_id = dept.id and salary > 180)
             order by id",
        )
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1, 3]);
    let r = s
        .run_sql(
            "select dept.id from dept where not exists
             (select emp.id from emp where dept_id = dept.id and salary > 180)
             order by id",
        )
        .unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
    let r = s
        .run_sql("select emp.id from emp where dept_id in (select id from dept where name = 'eng') order by emp.id")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![10, 11]);
}

#[test]
fn scalar_subquery_filter() {
    let s = session();
    let r = s
        .run_sql("select id from emp where salary > (select avg(salary) from emp) order by id")
        .unwrap();
    // avg = 160 → 200 and 300 qualify.
    assert_eq!(ints(&r, 0), vec![11, 14]);
}

#[test]
fn left_join_preserves_rows() {
    let s = session();
    // Filter emps to dept 1 inside the ON: all depts survive.
    let r = s
        .run_sql(
            "select dept.id, count(emp.id) as n
             from dept left outer join emp on dept.id = dept_id and salary >= 100
             group by dept.id order by dept.id",
        )
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1, 2, 3]);
    // dept2 has one emp with salary >= 100 (150), dept3 one (300).
    assert_eq!(ints(&r, 1), vec![2, 1, 1]);
}

#[test]
fn date_arithmetic_and_between() {
    let s = session();
    let r = s
        .run_sql(
            "select id from emp
             where hired between date '1970-01-01' + interval '50' day and date '1970-12-31'
             order by id",
        )
        .unwrap();
    // hired days: 0,100,200,300,400 → between day 50 and day 364: 100,200,300.
    assert_eq!(ints(&r, 0), vec![11, 12, 13]);
    let r = s
        .run_sql("select extract(year from hired) y, count(*) c from emp group by extract(year from hired) order by y")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![1970, 1971]);
    assert_eq!(ints(&r, 1), vec![4, 1]);
}

#[test]
fn case_and_arithmetic_projection() {
    let s = session();
    let r = s
        .run_sql(
            "select sum(case when salary >= 150 then 1 else 0 end) as rich,
                    sum(salary * 2) as double_total
             from emp",
        )
        .unwrap();
    assert_eq!(r.chunk.row(0)[0], Datum::Int(3));
    assert_eq!(r.chunk.row(0)[1], Datum::Float(1600.0));
}

#[test]
fn limit_and_distinct_count() {
    let s = session();
    let r = s
        .run_sql("select id from emp order by salary desc limit 2")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![14, 11]);
    let r = s
        .run_sql("select count(distinct dept_id) from emp")
        .unwrap();
    assert_eq!(r.chunk.row(0)[0], Datum::Int(3));
}

#[test]
fn substring_takes_positions_from_max_start_1_through_start_plus_len_minus_1() {
    let s = session();
    let strings = |sql: &str| -> Vec<String> {
        let r = s.run_sql(sql).unwrap();
        (0..r.chunk.rows())
            .map(|i| r.chunk.row(i)[0].as_str().unwrap().to_string())
            .collect()
    };
    // dept names in id order: eng, sales, hr.
    let from = |clause: &str| format!("select substring(name {clause}) from dept order by id");
    assert_eq!(strings(&from("from 1 for 2")), ["en", "sa", "hr"]);
    assert_eq!(strings(&from("from 0 for 2")), ["e", "s", "h"]);
    assert_eq!(strings(&from("from 0 for 1")), ["", "", ""]);
    assert_eq!(strings(&from("from 5 for 2")), ["", "s", ""]);
    assert_eq!(strings(&from("from 9 for 3")), ["", "", ""]);
    assert_eq!(strings(&from("from 2 for 0")), ["", "", ""]);
    // A huge length sizes nothing by itself.
    assert_eq!(
        strings(&from("from 2 for 1000000000000")),
        ["ng", "ales", "r"]
    );
}

#[test]
fn explain_contains_plan_shape() {
    let s = session();
    let r = s
        .run_sql("select count(*) from emp, dept where dept_id = dept.id")
        .unwrap();
    let plan = r.explain();
    assert!(plan.contains("HashAgg") || plan.contains("Agg"));
    assert!(plan.contains("Join"));
    assert!(plan.contains("Scan"));
}

#[test]
fn wide_from_lists_fail_typed_and_leave_the_session_usable() {
    let s = session();
    for n in [25, 65] {
        let from: Vec<String> = (0..n).map(|i| format!("dept d{i}")).collect();
        let on: Vec<String> = (1..n).map(|i| format!("d{}.id = d{i}.id", i - 1)).collect();
        let sql = format!(
            "select count(*) from {} where {}",
            from.join(", "),
            on.join(" and ")
        );
        let planned = s.plan_sql_only(&sql).map(|_| ());
        let ran = s.run_sql(&sql).map(|_| ());
        for err in [planned, ran] {
            let err = err.expect_err("a block this wide cannot be enumerated");
            assert!(matches!(err, BfqError::Plan(_)), "{n} relations: {err:?}");
        }
        let r = s.run_sql("select count(*) from dept").unwrap();
        assert_eq!(ints(&r, 0), vec![3], "after {n} relations");
    }
}

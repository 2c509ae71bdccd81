//! The oracle checked against answers written out by hand, over a
//! three-table catalog small enough to evaluate in one's head.
//!
//! ```text
//! dept  d_id d_name        emp  e_id e_name e_dept e_salary e_hired
//!       1    eng                1    ann    1      100.0    2020-01-15
//!       2    ops                2    bob    1      80.0     2021-06-01
//!       3    lab                3    cy     2      NULL     2021-12-31
//!                               4    dee    NULL   50.0     2022-03-10
//! task  t_id t_emp t_hours t_note     5    eli    2      70.0     2019-07-04
//!       10   1     5       fix_bug
//!       11   1     9       write doc
//!       12   2     3       NULL
//!       13   3     9       fix bug
//!       14   5     1       review
//! ```

use std::sync::Arc;

use bfq_common::{date::to_days, DataType};
use bfq_storage::{ChunkBuilder, Field, Schema, Table};

use super::*;

use Datum::Null;

fn int(v: i64) -> Datum {
    Datum::Int(v)
}

fn float(v: f64) -> Datum {
    Datum::Float(v)
}

fn text(s: &str) -> Datum {
    Datum::str(s)
}

fn table(name: &str, fields: &[(&str, DataType)], rows: &[Row]) -> Table {
    let schema = Arc::new(Schema::new(
        fields.iter().map(|(n, t)| Field::new(*n, *t)).collect(),
    ));
    let mut builder = ChunkBuilder::new(&schema);
    for row in rows {
        builder.push_row(row).unwrap();
    }
    Table::new(name, schema, vec![builder.finish().unwrap()]).unwrap()
}

fn catalog() -> Catalog {
    use DataType::{Date, Float64, Int64, Utf8};
    let day = |y, m, d| Datum::Date(to_days(y, m, d));
    let mut cat = Catalog::new();
    cat.register(
        table(
            "dept",
            &[("d_id", Int64), ("d_name", Utf8)],
            &[
                vec![int(1), text("eng")],
                vec![int(2), text("ops")],
                vec![int(3), text("lab")],
            ],
        ),
        vec![0],
    )
    .unwrap();
    cat.register(
        table(
            "emp",
            &[
                ("e_id", Int64),
                ("e_name", Utf8),
                ("e_dept", Int64),
                ("e_salary", Float64),
                ("e_hired", Date),
            ],
            &[
                vec![int(1), text("ann"), int(1), float(100.0), day(2020, 1, 15)],
                vec![int(2), text("bob"), int(1), float(80.0), day(2021, 6, 1)],
                vec![int(3), text("cy"), int(2), Null, day(2021, 12, 31)],
                vec![int(4), text("dee"), Null, float(50.0), day(2022, 3, 10)],
                vec![int(5), text("eli"), int(2), float(70.0), day(2019, 7, 4)],
            ],
        ),
        vec![0],
    )
    .unwrap();
    cat.register(
        table(
            "task",
            &[
                ("t_id", Int64),
                ("t_emp", Int64),
                ("t_hours", Int64),
                ("t_note", Utf8),
            ],
            &[
                vec![int(10), int(1), int(5), text("fix_bug")],
                vec![int(11), int(1), int(9), text("write doc")],
                vec![int(12), int(2), int(3), Null],
                vec![int(13), int(3), int(9), text("fix bug")],
                vec![int(14), int(5), int(1), text("review")],
            ],
        ),
        vec![0],
    )
    .unwrap();
    cat
}

fn query(sql: &str) -> (BoundQuery, Vec<Row>) {
    let cat = catalog();
    let mut bindings = Bindings::new();
    let bound =
        bfq_sql::plan_sql(sql, &cat, &mut bindings).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let rows = reference_rows(&bound, &bindings, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (bound, rows)
}

/// Rows in result order.
fn ordered(sql: &str) -> Vec<Row> {
    query(sql).1
}

/// Rows as a multiset (sorted by their rendering).
fn rows(sql: &str) -> Vec<Row> {
    let mut rows = ordered(sql);
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

fn ids(sql: &str) -> Vec<i64> {
    let mut out: Vec<i64> = ordered(sql)
        .iter()
        .map(|r| r[0].as_i64().expect("integer first column"))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn null_on_either_side_of_a_comparison_is_unknown() {
    assert_eq!(ids("select e_id from emp where e_dept = 1"), [1, 2]);
    // dee's NULL department is neither equal nor unequal to 1.
    assert_eq!(ids("select e_id from emp where e_dept <> 1"), [3, 5]);
    assert_eq!(ids("select e_id from emp where e_dept = e_id"), [1]);
    assert_eq!(ids("select e_id from emp where e_id = e_dept"), [1]);
    assert_eq!(ids("select e_id from emp where e_id <> e_dept"), [2, 3, 5]);
    assert_eq!(
        ids("select e_id from emp where e_salary = e_salary"),
        [1, 2, 4, 5]
    );
}

#[test]
fn not_in_with_a_null_on_either_side_is_unknown() {
    // NULL tested value: unknown, row dropped.
    assert_eq!(
        ids("select e_id from emp where e_dept not in (1, 3)"),
        [3, 5]
    );
    // NULL list member: `4 not in (NULL, 9)` is unknown; `1 not in (1, 9)`
    // is false.
    assert_eq!(
        ids("select e_id from emp where e_id not in (e_dept, 9)"),
        [2, 3, 5]
    );
    // ... while IN still finds a definite match next to a NULL.
    assert_eq!(
        ids("select e_id from emp where e_id in (e_dept, 4)"),
        [1, 4]
    );
}

#[test]
fn kleene_connectives() {
    let t = || Expr::lit(Datum::Bool(true));
    let f = || Expr::lit(Datum::Bool(false));
    let u = || Expr::lit(Null);
    let not = |e: Expr| Expr::Unary {
        op: UnOp::Not,
        expr: Box::new(e),
    };
    let value = |e: Expr| eval(&e, &Slots::new(), &vec![]).unwrap();
    assert_eq!(value(u().and(f())), Datum::Bool(false));
    assert_eq!(value(f().and(u())), Datum::Bool(false));
    assert_eq!(value(u().and(t())), Null);
    assert_eq!(value(u().or(t())), Datum::Bool(true));
    assert_eq!(value(t().or(u())), Datum::Bool(true));
    assert_eq!(value(u().or(f())), Null);
    assert_eq!(value(not(u())), Null);
    assert_eq!(value(not(f())), Datum::Bool(true));
    assert_eq!(value(u().eq(u())), Null);
}

#[test]
fn left_join_null_extends_and_is_null_sees_it() {
    assert_eq!(
        rows(
            "select e_name from (select e_name, d_name from emp left join dept \
             on e_dept = d_id) x where d_name is null"
        ),
        [vec![text("dee")]]
    );
    // An unmatched outer row still counts as a group, with nothing to count.
    assert_eq!(
        rows(
            "select d_name, count(e_id) as n from dept left join emp on d_id = e_dept \
             group by d_name"
        ),
        [
            vec![text("eng"), int(2)],
            vec![text("lab"), int(0)],
            vec![text("ops"), int(2)],
        ]
    );
    // A single-relation ON condition filters the null-producing side only.
    assert_eq!(
        rows(
            "select d_name, count(e_id) as n from dept left join emp \
             on d_id = e_dept and e_salary > 75 group by d_name"
        ),
        [
            vec![text("eng"), int(2)],
            vec![text("lab"), int(0)],
            vec![text("ops"), int(0)],
        ]
    );
}

#[test]
fn scalar_aggregate_over_no_rows() {
    assert_eq!(
        ordered(
            "select count(*), count(e_salary), sum(e_salary), min(e_salary), avg(e_salary), \
             max(e_id) from emp where e_id > 100"
        ),
        [vec![int(0), int(0), Null, Null, Null, Null]]
    );
}

#[test]
fn aggregates_skip_nulls_and_keep_integer_sums() {
    assert_eq!(
        ordered(
            "select count(*), count(e_salary), sum(e_salary), avg(e_salary), min(e_salary), \
             max(e_name), sum(e_id) from emp"
        ),
        [vec![
            int(5),
            int(4),
            float(300.0),
            float(75.0),
            float(50.0),
            text("eli"),
            int(15)
        ]]
    );
}

#[test]
fn group_by_a_nullable_key_groups_the_nulls() {
    assert_eq!(
        rows("select e_dept, count(*) as n from emp group by e_dept"),
        [
            vec![int(1), int(2)],
            vec![int(2), int(2)],
            vec![Null, int(1)],
        ]
    );
}

#[test]
fn count_distinct_and_having() {
    assert_eq!(
        ordered("select count(distinct t_hours), count(t_note), sum(distinct t_hours) from task"),
        [vec![int(4), int(4), int(18)]]
    );
    assert_eq!(
        rows("select t_emp, sum(t_hours) as h from task group by t_emp having sum(t_hours) > 5"),
        [vec![int(1), int(14)], vec![int(3), int(9)]]
    );
}

#[test]
fn order_by_and_limit() {
    assert_eq!(
        ordered("select e_id from emp order by e_id limit 0"),
        Vec::<Row>::new()
    );
    assert_eq!(
        ordered("select e_name from emp order by e_hired desc limit 2"),
        [vec![text("dee")], vec![text("cy")]]
    );
    // NULLs sort last ascending, first descending.
    assert_eq!(
        ordered("select e_id, e_salary from emp order by e_salary, e_id")
            .iter()
            .map(|r| r[0].clone())
            .collect::<Vec<_>>(),
        [int(4), int(5), int(2), int(1), int(3)]
    );
    assert_eq!(
        ordered("select e_id from emp order by e_salary desc limit 1"),
        [vec![int(3)]]
    );
}

#[test]
fn case_without_else_is_null() {
    assert_eq!(
        ordered(
            "select e_id, case when e_salary > 75 then 'high' end as band from emp order by e_id"
        ),
        [
            vec![int(1), text("high")],
            vec![int(2), text("high")],
            vec![int(3), Null],
            vec![int(4), Null],
            vec![int(5), Null],
        ]
    );
}

#[test]
fn like_wildcards() {
    // `_` is exactly one character: it matches both '_' and ' '.
    assert_eq!(
        ids("select t_id from task where t_note like 'fix_bug'"),
        [10, 13]
    );
    assert_eq!(ids("select t_id from task where t_note like '%doc'"), [11]);
    assert_eq!(
        ids("select t_id from task where t_note like '%i%e%'"),
        [11, 14]
    );
    assert_eq!(ids("select t_id from task where t_note like 'review_'"), []);
    // A NULL note is neither like nor unlike anything.
    assert_eq!(
        ids("select t_id from task where t_note not like 'fix%'"),
        [11, 14]
    );
    let chars = |s: &str| s.chars().collect::<Vec<_>>();
    assert!(like(&chars(""), &chars("%")));
    assert!(!like(&chars(""), &chars("_")));
    assert!(like(&chars("abc"), &chars("a%c%")));
    assert!(!like(&chars("abc"), &chars("a%b")));
}

#[test]
fn between_on_dates_is_inclusive() {
    assert_eq!(
        ids("select e_id from emp where e_hired between date '2021-06-01' and date '2021-12-31'"),
        [2, 3]
    );
    assert_eq!(
        ids(
            "select e_id from emp where e_hired not between date '2020-01-01' and date '2021-12-31'"
        ),
        [4, 5]
    );
}

#[test]
fn date_parts_and_date_arithmetic() {
    assert_eq!(
        ordered(
            "select e_id, extract(year from e_hired) as y, extract(month from e_hired) as m \
             from emp where e_id <= 2 order by e_id"
        ),
        [
            vec![int(1), int(2020), int(1)],
            vec![int(2), int(2021), int(6)]
        ]
    );
    assert_eq!(year_month(0), (1970, 1));
    assert_eq!(year_month(-1), (1969, 12));
    assert_eq!(year_month(to_days(2000, 2, 29)), (2000, 2));
    assert_eq!(year_month(to_days(2000, 3, 1)), (2000, 3));
    assert_eq!(year_month(to_days(1900, 12, 31)), (1900, 12));
    assert_eq!(year_month(to_days(2024, 12, 31)), (2024, 12));
    // bob was hired 503 days after ann.
    assert_eq!(
        ids("select e_id from emp where e_hired - date '2020-01-15' = 503"),
        [2]
    );
    assert_eq!(
        ids("select e_id from emp where e_hired + interval '1' day = date '2022-01-01'"),
        [3]
    );
}

#[test]
fn arithmetic_typing() {
    assert_eq!(
        ordered("select 7 / 2, 7 * 2, 7 - 0.5, e_id / 0, e_salary + 1 from emp where e_id = 3"),
        [vec![float(3.5), int(14), float(6.5), Null, Null]]
    );
    assert_eq!(
        ordered("select substring(e_name from 2 for 2) as s from emp where e_id = 1"),
        [vec![text("nn")]]
    );
}

#[test]
fn scalar_subquery_filter() {
    // The average of the four non-NULL salaries is 75.
    assert_eq!(
        ids("select e_id from emp where e_salary > (select avg(e_salary) from emp)"),
        [1, 2]
    );
    // A scalar subquery without a row is NULL: nothing compares TRUE.
    assert_eq!(
        ids("select e_id from emp where e_salary > \
             (select e_salary from emp where e_id = 100)"),
        []
    );
    // More than one row is an error, not a silent pick of the first.
    let cat = catalog();
    let mut bindings = Bindings::new();
    let sql = "select e_id from emp where e_id = (select t_emp from task)";
    let bound = bfq_sql::plan_sql(sql, &cat, &mut bindings).unwrap();
    assert!(reference_rows(&bound, &bindings, &cat).is_err());
}

#[test]
fn exists_and_not_exists_with_a_non_equi_condition() {
    // Q21's shape: another task with the same hours by a different person.
    let other = "from task t2 where t2.t_hours = t1.t_hours and t2.t_emp <> t1.t_emp";
    assert_eq!(
        ids(&format!(
            "select t1.t_id from task t1 where exists (select t2.t_id {other})"
        )),
        [11, 13]
    );
    assert_eq!(
        ids(&format!(
            "select t1.t_id from task t1 where not exists (select t2.t_id {other})"
        )),
        [10, 12, 14]
    );
    // Correlated through an expression of the outer row.
    assert_eq!(
        ids("select e_id from emp where exists \
             (select t_id from task where t_emp = e_id and t_hours > e_id * 4)"),
        [1]
    );
    // IN / NOT IN subqueries attach the same way.
    assert_eq!(
        ids("select e_id from emp where e_id in (select t_emp from task where t_hours >= 9)"),
        [1, 3]
    );
    assert_eq!(
        ids("select e_id from emp where e_id not in (select t_emp from task)"),
        [4]
    );
}

#[test]
fn three_way_join_and_cross_type_keys() {
    assert_eq!(
        rows(
            "select e_name, d_name, t_hours from emp, dept, task \
             where e_dept = d_id and t_emp = e_id and d_name = 'eng'"
        ),
        [
            vec![text("ann"), text("eng"), int(5)],
            vec![text("ann"), text("eng"), int(9)],
            vec![text("bob"), text("eng"), int(3)],
        ]
    );
    // A cross product when nothing connects the relations.
    assert_eq!(
        ordered("select count(*) from dept, task where d_id < 3"),
        [vec![int(10)]]
    );
    // A multi-relation predicate that is not an equality (cy's NULL
    // salary makes it unknown for task 13).
    assert_eq!(
        ids("select t_id from emp, task where t_emp = e_id and t_hours * 10 < e_salary"),
        [10, 11, 12, 14]
    );
    assert_eq!(Key::of(&float(2.0)), Key::of(&int(2)));
    assert_ne!(Key::of(&float(2.5)), Key::of(&int(2)));
    assert_eq!(Key::of(&Datum::Date(7)), Key::of(&int(7)));
}

#[test]
fn from_less_select() {
    assert_eq!(ordered("select 1 + 2 as three"), [vec![int(3)]]);
}

#[test]
fn a_relation_unknown_to_the_bindings_is_an_error() {
    let cat = catalog();
    let mut bindings = Bindings::new();
    let bound = bfq_sql::plan_sql("select d_id from dept", &cat, &mut bindings).unwrap();
    assert!(reference_rows(&bound, &Bindings::new(), &cat).is_err());
}

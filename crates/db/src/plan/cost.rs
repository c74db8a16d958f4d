//! Physical access selection: decide per [`ScanNode`] how its rows are
//! read — columnar kernels, index candidates, index-order, a semi-join
//! through the base index, an index probe of a join's right side, or a
//! sequential scan — using table and index statistics.
//!
//! This is a *cost* decision, not a rewrite: it runs with the optimizer
//! off too (matching the pre-IR engine, where index and columnar
//! dispatch were per-statement heuristics independent of any rewrites),
//! and it never changes what rows the plan produces, or their order,
//! only how they are found.

use std::collections::HashSet;

use super::ir::{base_scan_mut, scan_chain_mut, Access, ChainLink, LogicalPlan, ScanNode};
use crate::column::CHUNK_ROWS;
use crate::error::Result;
use crate::exec::eval::{eval_condition, Env, Layout};
use crate::exec::select::{
    collect_aggregates, collect_columns, conjuncts, equi_offsets, has_bare_column,
    index_candidates, refs_only_layout,
};
use crate::exec::vector;
use crate::sql::ast::{BinaryOp, Expr, JoinKind, Projection};
use crate::table::RowId;
use crate::value::Value;

/// An index access pays when it reads at most this fraction (1/N) of a
/// table's live rows; the columnar, semi-join and probe decisions share
/// the break-even.
const INDEX_PAYS_DIVISOR: usize = 4;

fn index_pays(rows_read: usize, live: usize) -> bool {
    rows_read.saturating_mul(INDEX_PAYS_DIVISOR) <= live
}

/// Annotate every scan in the plan with its access decision.
pub(crate) fn decide_access(
    root: &mut LogicalPlan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<()> {
    if let Some((plan, reason)) = columnar_choice(root, params, had_subqueries)? {
        if let Some(scan) = base_scan_mut(root) {
            scan.access = Access::Columnar {
                plan: Box::new(plan),
                reason,
            };
        }
        return Ok(());
    }
    // Sort-elision may have preset an index-order scan, and per-statement
    // materializations have no indexes: both keep their access.
    if let Some(scan) = base_scan_mut(root)
        .filter(|scan| matches!(scan.access, Access::Seq) && !scan.source.is_virtual())
    {
        let choice = index_candidates(
            &scan.source,
            &scan.binding,
            &scan.layout1(),
            scan.index_filter.as_ref(),
            params,
        )?;
        if let Some(choice) = choice {
            scan.access = Access::Index(choice);
        }
    }
    let mut chain = Vec::new();
    scan_chain_mut(root, &mut chain);
    if chain.len() > 1 {
        if !had_subqueries {
            // EXPLAIN sees unresolved subqueries, execution their values;
            // decline in both so the two plans agree.
            semi_join_choice(&mut chain, params);
        }
        probe_choices(&mut chain);
    }
    Ok(())
}

/// Binding layouts of a scan chain, one per scan, in join order.
fn chain_bindings(chain: &[ChainLink<'_, '_>]) -> Vec<(String, Vec<String>)> {
    chain
        .iter()
        .map(|(s, _)| (s.binding.clone(), s.columns.clone()))
        .collect()
}

/// The equi-join offsets of link `i` (left offset in the layout of the
/// scans before it, right offset in its own table), for INNER and LEFT
/// joins.
fn link_equi(
    chain: &[ChainLink<'_, '_>],
    bindings: &[(String, Vec<String>)],
    i: usize,
) -> Option<(usize, usize)> {
    let (right, Some((JoinKind::Inner | JoinKind::Left, Some(on)))) = &chain[i] else {
        return None;
    };
    let left_layout = Layout::new(bindings[..i].to_vec());
    equi_offsets(on, &left_layout, &right.binding, &right.columns)
}

/// Semi-join reduction of the base scan. When an INNER equi-join's right
/// side is filtered by WHERE conjuncts over its own columns and the
/// base's join column is indexed, the base rows that can survive that
/// join are exactly the index's rows for the filtered right side's keys.
/// Only a sequential base qualifies: candidate ids ascend, so the base
/// yields the rows a full scan would keep, in the same order. Among
/// several such joins the one with the fewest candidates wins, if it
/// pays.
fn semi_join_choice(chain: &mut [ChainLink<'_, '_>], params: &[Value]) {
    let bindings = chain_bindings(chain);
    let full = Layout::new(bindings.clone());
    let base_width = bindings[0].1.len();
    let base: &ScanNode<'_> = chain[0].0;
    let (Access::Seq, false, Some(pred)) = (
        &base.access,
        base.source.is_virtual(),
        base.index_filter.as_ref(),
    ) else {
        return;
    };
    let live = base.source.len();
    let mut best: Option<Access> = None;
    let mut best_len = usize::MAX;
    for i in 1..chain.len() {
        let (right, Some((JoinKind::Inner, _))) = &chain[i] else {
            continue;
        };
        let Some((l_off, r_off)) = link_equi(chain, &bindings, i) else {
            continue;
        };
        if l_off >= base_width {
            continue; // keyed on an earlier right side, not the base
        }
        let Some(ix) = base.source.index_on(l_off) else {
            continue;
        };
        let Some(span) = full.binding_span(&right.binding) else {
            continue;
        };
        // WHERE conjuncts over this right side alone: every output row
        // carries one matching right row, which must satisfy them.
        let filter: Vec<&Expr> = conjuncts(pred)
            .into_iter()
            .filter(|c| {
                !c.contains_aggregate()
                    && refs_only_layout(c, &right.layout1())
                    && resolves_within(c, &full, span)
            })
            .collect();
        if filter.is_empty() {
            continue;
        }
        // An evaluation error declines the reduction; execution then
        // reports it where the plain plan would.
        let Ok(keys) = filtered_keys(right, r_off, &filter, params) else {
            continue;
        };
        let candidates: usize = keys.iter().map(|key| ix.lookup(key).len()).sum();
        if candidates >= best_len || !index_pays(candidates, live) {
            continue;
        }
        let mut ids: Vec<RowId> = Vec::with_capacity(candidates);
        for key in &keys {
            ids.extend_from_slice(ix.lookup(key));
        }
        ids.sort_unstable();
        best_len = candidates;
        best = Some(Access::SemiJoin {
            ids,
            index_name: ix.name.clone(),
            column: l_off,
            from: right.binding.clone(),
            keys: keys.len(),
        });
    }
    if let Some(access) = best {
        chain[0].0.access = access;
    }
}

/// True if every column `expr` reads resolves, in the full join layout,
/// inside the binding span `(start, len)`.
fn resolves_within(expr: &Expr, full: &Layout, (start, len): (usize, usize)) -> bool {
    let mut cols = Vec::new();
    collect_columns(expr, &mut cols);
    cols.iter().all(|(t, c)| {
        full.resolve(*t, c)
            .is_ok_and(|off| off >= start && off < start + len)
    })
}

/// The distinct non-NULL join keys (column `key_col`) of the right
/// side's rows that pass `filter`. Rows come through the right table's
/// own index when a filter conjunct can use one.
fn filtered_keys(
    right: &ScanNode<'_>,
    key_col: usize,
    filter: &[&Expr],
    params: &[Value],
) -> Result<HashSet<Value>> {
    let layout1 = right.layout1();
    let all = filter
        .iter()
        .map(|c| (*c).clone())
        .reduce(|l, r| Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(l),
            right: Box::new(r),
        });
    let table = &right.source;
    let candidates = index_candidates(table, &right.binding, &layout1, all.as_ref(), params)?;
    let rows: Box<dyn Iterator<Item = &crate::table::Row>> = match &candidates {
        Some(choice) => Box::new(choice.ids.iter().filter_map(|&id| table.row(id))),
        None => Box::new(table.iter().map(|(_, row)| row)),
    };
    let mut keys = HashSet::new();
    'rows: for row in rows {
        for c in filter {
            if !eval_condition(c, &Env::new(&layout1, row, params))? {
                continue 'rows;
            }
        }
        if !row[key_col].is_null() {
            keys.insert(row[key_col].clone());
        }
    }
    Ok(keys)
}

/// Index-probe joins. An INNER/LEFT equi-join whose right join column
/// is indexed fetches only the right rows matching its left keys when
/// the left side can carry few keys: an upper bound on them times the
/// index's mean rows per key must be a small share of the right table.
fn probe_choices(chain: &mut [ChainLink<'_, '_>]) {
    let bindings = chain_bindings(chain);
    for i in 1..chain.len() {
        let Some((l_off, r_off)) = link_equi(chain, &bindings, i) else {
            continue;
        };
        let right = &chain[i].0;
        if right.source.is_virtual() {
            continue;
        }
        let Some(ix) = right.source.index_on(r_off) else {
            continue;
        };
        let est_keys = left_key_bound(chain, l_off);
        let rows_per_key = ix.len().div_ceil(ix.distinct_keys().max(1));
        if !index_pays(est_keys.saturating_mul(rows_per_key), right.source.len()) {
            continue;
        }
        let index_name = ix.name.clone();
        chain[i].0.access = Access::Probe {
            index_name,
            est_keys,
            rows_per_key,
        };
    }
}

/// Upper bound on the distinct non-NULL values of flat column `off` of
/// the scans' combined layout: the owning scan's candidate or live rows,
/// capped by the distinct keys of an index on the column — or exactly
/// the semi-join's key count when the base was reduced on that column.
fn left_key_bound(chain: &[ChainLink<'_, '_>], off: usize) -> usize {
    let mut col = off;
    for (scan, _) in chain {
        let width = scan.columns.len();
        if col >= width {
            col -= width;
            continue;
        }
        let rows = match &scan.access {
            Access::Index(choice) => choice.ids.len(),
            Access::SemiJoin { column, keys, .. } if *column == col => return *keys,
            Access::SemiJoin { ids, .. } => ids.len(),
            _ => scan.source.len(),
        };
        return scan
            .source
            .index_on(col)
            .map_or(rows, |ix| rows.min(ix.distinct_keys()));
    }
    usize::MAX
}

/// Decide between columnar, index, and sequential execution for an
/// eligible aggregate plan, using the same statistics thresholds the
/// pre-IR heuristic applied. Returns `None` when row execution (index
/// or seq) should run.
fn columnar_choice(
    root: &LogicalPlan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<Option<(vector::ColumnarPlan, String)>> {
    // Subqueries resolve to literals before execution but EXPLAIN plans
    // them unresolved; decline in both so the paths agree.
    if had_subqueries {
        return Ok(None);
    }
    let mode = vector::columnar_mode();
    if mode == vector::ColumnarMode::Off {
        return Ok(None);
    }
    // Eligible shape: Limit?(Project(Aggregate[ungrouped](Filter?(Scan))))
    // — a single-table, ungrouped aggregate query whose projections are
    // pure aggregate expressions. Any other node (Sort, Distinct, Join)
    // breaks the pattern and keeps row execution.
    let node = match root {
        LogicalPlan::Limit { input, .. } => &**input,
        other => other,
    };
    let LogicalPlan::Project { input, projections } = node else {
        return Ok(None);
    };
    let LogicalPlan::Aggregate {
        input,
        group_by,
        having,
    } = &**input
    else {
        return Ok(None);
    };
    if !group_by.is_empty() || having.is_some() {
        return Ok(None);
    }
    let (scan, pred) = match &**input {
        LogicalPlan::Scan(s) => (s, None),
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Scan(s) => (s, Some(predicate)),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    if scan.source.is_virtual() {
        // Virtual tables are rematerialized per statement, so their chunk
        // caches would never pay off: always take the row path.
        return Ok(None);
    }
    if projections.is_empty()
        || !projections.iter().all(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate() && !has_bare_column(expr),
            _ => false,
        })
    {
        return Ok(None);
    }
    let layout1 = scan.layout1();
    // Same collection order as the executor, so accumulator `i` belongs
    // to aggregate expression `i`.
    let mut aggs: Vec<&Expr> = Vec::new();
    for p in projections {
        if let Projection::Expr { expr, .. } = p {
            collect_aggregates(expr, &mut aggs);
        }
    }
    let Some(plan) = vector::plan_columnar(
        &scan.source.schema,
        &scan.binding,
        &layout1,
        &aggs,
        pred,
        params,
    ) else {
        return Ok(None);
    };
    let live = scan.source.len();
    let reason = match mode {
        vector::ColumnarMode::Force => "forced by PERFDMF_COLUMNAR".to_string(),
        vector::ColumnarMode::Auto => {
            match index_candidates(
                &scan.source,
                &scan.binding,
                &layout1,
                scan.index_filter.as_ref(),
                params,
            )? {
                Some(choice) => {
                    // A selective index beats scanning every chunk; a
                    // low-selectivity one does not.
                    if index_pays(choice.ids.len(), live) {
                        return Ok(None);
                    }
                    format!(
                        "index {} unselective: {} candidate(s) of {} live row(s), {} distinct key(s)",
                        choice.index_name,
                        choice.ids.len(),
                        live,
                        choice.distinct_keys
                    )
                }
                None => {
                    if live < CHUNK_ROWS {
                        return Ok(None); // small table: seq scan is fine
                    }
                    format!("no usable index, {live} live row(s) ≥ {CHUNK_ROWS} threshold")
                }
            }
        }
        vector::ColumnarMode::Off => unreachable!("handled above"),
    };
    Ok(Some((plan, reason)))
}

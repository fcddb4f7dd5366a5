//! The FLWOR clauses, each with a local tuple path and the DataFrame
//! mapping of §4.4–§4.9.
//!
//! In DataFrame mode every in-scope variable is one `Bin` column holding
//! its serialized sequence. UDFs rebuild a dynamic context from the columns
//! an expression actually reads (its declared `uses` footprint — which also
//! feeds the optimizer's pruning, §4.7's "does not create the column at
//! all").

use super::{
    bin_of, ctx_from_row, ClauseIterator, ClauseRef, FusedScan, FusedStep, Tuple, TupleCursor,
    TupleFrame,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{decode_items, group_key, seq, Item};
use crate::runtime::{eval_ebv, DynamicContext, ExprRef};
use sparklite::dataframe::{Agg, NamedExpr};
use sparklite::dataframe::{DataFrame, DataType, Expr as DfExpr, Field, Schema, SortDir, Value};
use sparklite::rdd::task_bail;
use std::collections::HashMap;
use std::sync::Arc;

/// Computes the post-clause variable list: parent variables (minus a
/// redeclared one) plus the new variable.
fn vars_plus(parent: Option<&ClauseRef>, new: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = match parent {
        None => Vec::new(),
        Some(p) => p.out_vars().iter().filter(|v| !new.iter().any(|n| n == *v)).cloned().collect(),
    };
    out.extend(new.iter().cloned());
    out
}

/// Lazily chains per-parent-tuple cursors of output tuples.
struct TupleFlatMap {
    parent: TupleCursor,
    f: Box<dyn FnMut(Tuple) -> Result<TupleCursor> + Send>,
    inner: Option<TupleCursor>,
    failed: bool,
}

impl TupleFlatMap {
    #[allow(clippy::new_ret_no_self)] // constructor returns the boxed cursor form
    fn new(
        parent: TupleCursor,
        f: impl FnMut(Tuple) -> Result<TupleCursor> + Send + 'static,
    ) -> TupleCursor {
        Box::new(TupleFlatMap { parent, f: Box::new(f), inner: None, failed: false })
    }
}

impl Iterator for TupleFlatMap {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(r) => {
                        if r.is_err() {
                            self.failed = true;
                        }
                        return Some(r);
                    }
                    None => self.inner = None,
                }
            }
            match self.parent.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(t)) => match (self.f)(t) {
                    Ok(c) => self.inner = Some(c),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }
}

/// Builds a DataFrame UDF that evaluates a compiled expression against the
/// variables of a row and post-processes its result sequence.
fn row_udf(
    name: &str,
    expr: ExprRef,
    uses: Vec<Arc<str>>,
    ctx: &DynamicContext,
    finish: impl Fn(Vec<Item>) -> Value + Send + Sync + 'static,
) -> DfExpr {
    let base = ctx.enter_executor();
    let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
    DfExpr::udf(name, Some(uses_strings), move |schema: &Schema, row: &[Value]| {
        let child = ctx_from_row(&base, schema, row, &uses);
        match expr.materialize(&child) {
            Ok(items) => finish(items),
            Err(e) => task_bail(e),
        }
    })
}

// ---------------------------------------------------------------------------
// for
// ---------------------------------------------------------------------------

/// `for $var [at $pos] [allowing empty] in expr` (§4.4).
pub struct ForClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub positional: Option<Arc<str>>,
    pub allowing_empty: bool,
    pub expr: ExprRef,
    /// FLWOR variables the binding expression reads.
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl ForClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        positional: Option<Arc<str>>,
        allowing_empty: bool,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let mut new_vars = vec![Arc::clone(&var)];
        if let Some(p) = &positional {
            new_vars.push(Arc::clone(p));
        }
        let out = vars_plus(parent.as_ref(), &new_vars);
        ForClauseIter { parent, var, positional, allowing_empty, expr, uses, out }
    }

    /// Expands one tuple into the tuples produced by this binding.
    fn expand(&self, base: Tuple, ctx: &DynamicContext) -> Result<TupleCursor> {
        let child_ctx = base.bind_into(ctx);
        let items = self.expr.materialize(&child_ctx)?;
        if items.is_empty() && self.allowing_empty {
            let mut t = base.extended(Arc::clone(&self.var), seq(vec![]));
            if let Some(p) = &self.positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(0)]));
            }
            return Ok(Box::new(std::iter::once(Ok(t))));
        }
        let var = Arc::clone(&self.var);
        let positional = self.positional.clone();
        Ok(Box::new(items.into_iter().enumerate().map(move |(i, item)| {
            let mut t = base.extended(Arc::clone(&var), seq(vec![item]));
            if let Some(p) = &positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(i as i64 + 1)]));
            }
            Ok(t)
        })))
    }
}

impl ClauseIterator for ForClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return !self.allowing_empty; // `allowing empty` may bind ()
        }
        if self.positional.as_deref() == Some(var) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        if self.parent.is_some() || self.positional.is_some() || self.allowing_empty {
            return None;
        }
        Some(FusedScan {
            var: Arc::clone(&self.var),
            source: Arc::clone(&self.expr),
            steps: Vec::new(),
        })
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        match &self.parent {
            None => self.expand(Tuple::new(), ctx),
            Some(parent) => {
                let parent_cursor = parent.tuples(ctx)?;
                // Work around borrowing self in the closure: clone the bits.
                let this = ForClauseIter {
                    parent: None,
                    var: Arc::clone(&self.var),
                    positional: self.positional.clone(),
                    allowing_empty: self.allowing_empty,
                    expr: Arc::clone(&self.expr),
                    uses: self.uses.clone(),
                    out: Vec::new(),
                };
                let ctx = ctx.clone();
                Ok(TupleFlatMap::new(parent_cursor, move |t| this.expand(t, &ctx)))
            }
        }
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        match &self.parent {
            None => {
                // Initial for: the input sequence itself must be an RDD,
                // which is then mapped straight into a one-column DataFrame
                // (§4.4, last paragraph).
                if ctx.in_executor() || !self.expr.is_rdd(ctx) || self.allowing_empty {
                    return Ok(None);
                }
                let rdd = self.expr.rdd(ctx)?;
                let (schema, vars, rows) = match &self.positional {
                    None => {
                        let schema =
                            Schema::new(vec![Field::new(self.var.as_ref(), DataType::Bin)]);
                        let rows = rdd.map(|item| vec![bin_of(std::slice::from_ref(&item))]);
                        (schema, vec![Arc::clone(&self.var)], rows)
                    }
                    Some(pos) => {
                        let schema = Schema::new(vec![
                            Field::new(self.var.as_ref(), DataType::Bin),
                            Field::new(pos.as_ref(), DataType::Bin),
                        ]);
                        let rows = rdd.zip_with_index().map(|(item, idx)| {
                            vec![
                                bin_of(std::slice::from_ref(&item)),
                                bin_of(&[Item::Integer(idx as i64 + 1)]),
                            ]
                        });
                        (schema, vec![Arc::clone(&self.var), Arc::clone(pos)], rows)
                    }
                };
                Ok(Some(TupleFrame { df: DataFrame::from_rdd(schema, &rows), vars }))
            }
            Some(parent) => {
                // Non-initial for: extended projection computing the item
                // list, then EXPLODE (§4.4).
                if self.positional.is_some() || self.allowing_empty {
                    return Ok(None); // local fallback for these variants
                }
                let Some(f) = parent.frame(ctx)? else { return Ok(None) };
                let mut df = f.df;
                if f.vars.iter().any(|v| v == &self.var) {
                    // Redeclaration hides the previous binding.
                    df = df.drop_columns(&[self.var.as_ref()])?;
                }
                let items_udf = row_udf(
                    &format!("for ${}", self.var),
                    Arc::clone(&self.expr),
                    self.uses.clone(),
                    ctx,
                    |items| {
                        Value::List(Arc::new(
                            items.iter().map(|i| bin_of(std::slice::from_ref(i))).collect(),
                        ))
                    },
                );
                let tmp = format!("__rumble_for_{}", self.var);
                let df = df.with_column(&tmp, items_udf, DataType::List)?.explode(
                    &tmp,
                    self.var.as_ref(),
                    DataType::Bin,
                )?;
                Ok(Some(TupleFrame { df, vars: self.out.clone() }))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// let
// ---------------------------------------------------------------------------

/// `let $var := expr` (§4.5): extended projection without the explode.
pub struct LetClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl LetClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let out = vars_plus(parent.as_ref(), std::slice::from_ref(&var));
        LetClauseIter { parent, var, expr, uses, out }
    }
}

impl ClauseIterator for LetClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return false; // a let binds an arbitrary sequence
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        // Only a non-initial `let` continues a prefix: an initial one is
        // local (§4.5).
        let mut scan = self.parent.as_ref()?.fused_scan()?;
        scan.steps.push(FusedStep::Let {
            var: Arc::clone(&self.var),
            expr: Arc::clone(&self.expr),
            uses: self.uses.clone(),
        });
        Some(scan)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let expr = Arc::clone(&self.expr);
        let ctx = ctx.clone();
        let parent: TupleCursor = match &self.parent {
            None => Box::new(std::iter::once(Ok(Tuple::new()))),
            Some(p) => p.tuples(&ctx)?,
        };
        Ok(TupleFlatMap::new(parent, move |t| {
            let child = t.bind_into(&ctx);
            let items = expr.materialize(&child)?;
            let out = t.extended(Arc::clone(&var), seq(items));
            Ok(Box::new(std::iter::once(Ok(out))) as TupleCursor)
        }))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        // An initial let is always local (§4.5: "If the let clause is the
        // first clause … execution is local").
        let Some(parent) = &self.parent else { return Ok(None) };
        let Some(f) = parent.frame(ctx)? else { return Ok(None) };
        let udf = row_udf(
            &format!("let ${}", self.var),
            Arc::clone(&self.expr),
            self.uses.clone(),
            ctx,
            |items| bin_of(&items),
        );
        let df = f.df.with_column(self.var.as_ref(), udf, DataType::Bin)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// where
// ---------------------------------------------------------------------------

/// `where expr` (§4.6): a selection by effective boolean value.
pub struct WhereClauseIter {
    pub parent: ClauseRef,
    pub predicate: ExprRef,
    pub uses: Vec<Arc<str>>,
}

impl ClauseIterator for WhereClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        let mut scan = self.parent.fused_scan()?;
        scan.steps.push(FusedStep::Where {
            predicate: Arc::clone(&self.predicate),
            uses: self.uses.clone(),
        });
        Some(scan)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let pred = Arc::clone(&self.predicate);
        let ctx2 = ctx.clone();
        let parent = self.parent.tuples(ctx)?;
        Ok(Box::new(parent.filter_map(move |r| match r {
            Err(e) => Some(Err(e)),
            Ok(t) => {
                let child = t.bind_into(&ctx2);
                match eval_ebv(&pred, &child) {
                    Ok(true) => Some(Ok(t)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                }
            }
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let base = ctx.enter_executor();
        let pred = Arc::clone(&self.predicate);
        let uses = self.uses.clone();
        let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
        let udf =
            DfExpr::udf("where", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                match eval_ebv(&pred, &child) {
                    Ok(b) => Value::Bool(b),
                    Err(e) => task_bail(e),
                }
            });
        let df = f.df.filter(udf)?;
        Ok(Some(TupleFrame { df, vars: f.vars }))
    }
}

// ---------------------------------------------------------------------------
// count
// ---------------------------------------------------------------------------

/// `count $var` (§4.9): global row numbering via the parallel
/// zip-with-index trick.
pub struct CountClauseIter {
    pub parent: ClauseRef,
    pub var: Arc<str>,
    out: Vec<Arc<str>>,
}

impl CountClauseIter {
    pub fn new(parent: ClauseRef, var: Arc<str>) -> Self {
        let out = vars_plus(Some(&parent), std::slice::from_ref(&var));
        CountClauseIter { parent, var, out }
    }
}

impl ClauseIterator for CountClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        var == self.var.as_ref() || self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let parent = self.parent.tuples(ctx)?;
        let mut n: i64 = 0;
        Ok(Box::new(parent.map(move |r| {
            r.map(|t| {
                n += 1;
                t.extended(Arc::clone(&var), seq(vec![Item::Integer(n)]))
            })
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let mut df = f.df;
        if f.vars.iter().any(|v| v == &self.var) {
            df = df.drop_columns(&[self.var.as_ref()])?;
        }
        let tmp = "__rumble_count";
        let df = df.zip_with_index(tmp, 1)?;
        let encode = DfExpr::udf(
            "count-encode",
            Some(vec![tmp.to_string()]),
            move |schema: &Schema, row: &[Value]| {
                let idx = schema.index_of(tmp).expect("tmp column exists");
                let Value::I64(n) = row[idx] else { task_bail("count column must be I64") };
                bin_of(&[Item::Integer(n)])
            },
        );
        let df = df.with_column(self.var.as_ref(), encode, DataType::Bin)?.drop_columns(&[tmp])?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// group by
// ---------------------------------------------------------------------------

/// How a non-grouping variable is consumed downstream, detected by the
/// compiler (§4.7 last paragraph): fully materialized, only ever counted,
/// or never used (column not even created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonGroupingUsage {
    Materialize,
    CountOnly,
    Unused,
}

/// One grouping key: `$var := expr`, or a bare `$var`.
pub struct GroupKeySpec {
    pub var: Arc<str>,
    pub expr: Option<ExprRef>,
    pub uses: Vec<Arc<str>>,
}

/// `group by $k := expr, …` (§4.7).
pub struct GroupByClauseIter {
    pub parent: ClauseRef,
    pub keys: Vec<GroupKeySpec>,
    pub nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    out: Vec<Arc<str>>,
}

impl GroupByClauseIter {
    pub fn new(
        parent: ClauseRef,
        keys: Vec<GroupKeySpec>,
        nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    ) -> Self {
        let mut out: Vec<Arc<str>> = keys.iter().map(|k| Arc::clone(&k.var)).collect();
        for (v, usage) in &nongrouping {
            if *usage != NonGroupingUsage::Unused && !out.iter().any(|o| o == v) {
                out.push(Arc::clone(v));
            }
        }
        GroupByClauseIter { parent, keys, nongrouping, out }
    }

    fn key_specs(&self) -> GroupKeySpecs {
        Arc::new(self.keys.iter().map(|s| (s.expr.clone(), Arc::clone(&s.var))).collect())
    }

    /// The non-grouping variables the grouping input carries, and whether
    /// only their sequence length is needed: materialized ones as their
    /// `Bin` cell, count-only ones as a `__len_` column — except unit
    /// variables (bound by `for`/`count`, always exactly one item), whose
    /// count is simply the row count.
    fn carried(&self) -> Vec<(Arc<str>, bool)> {
        self.nongrouping
            .iter()
            .filter_map(|(var, usage)| match usage {
                NonGroupingUsage::Unused => None,
                NonGroupingUsage::Materialize => Some((Arc::clone(var), false)),
                NonGroupingUsage::CountOnly if self.parent.is_unit_var(var) => None,
                NonGroupingUsage::CountOnly => Some((Arc::clone(var), true)),
            })
            .collect()
    }

    /// Steps 1–2 from the items of a fused prefix: one closure runs the
    /// prefix, computes the native key cells and encodes only the carried
    /// variables.
    fn fused_input(&self, scan: FusedScan, ctx: &DynamicContext) -> Result<DataFrame> {
        let specs = self.key_specs();
        let carried = self.carried();
        let mut fields = group_key_fields(self.keys.len());
        let mut live: Vec<Arc<str>> = self.keys.iter().flat_map(|k| k.uses.clone()).collect();
        for (var, len_only) in &carried {
            fields.push(match len_only {
                true => Field::new(format!("__len_{var}"), DataType::I64),
                false => Field::new(var.as_ref(), DataType::Bin),
            });
            live.push(Arc::clone(var));
        }
        let width = fields.len();
        let (rdd, eval) = scan.plan(ctx, &live)?;
        let rows = eval.flat_map(rdd, move |ctx| {
            let mut row = Vec::with_capacity(width);
            group_key_cells(&specs, ctx, &mut row)?;
            for (var, len_only) in &carried {
                let value = ctx.lookup(var).unwrap_or_else(crate::item::empty_seq);
                row.push(match len_only {
                    true => Value::I64(value.len() as i64),
                    false => bin_of(&value),
                });
            }
            Ok([row])
        });
        Ok(DataFrame::from_rdd(Schema::new(fields), &rows))
    }

    /// Steps 1–2 over the parent's tuple frame.
    fn frame_input(&self, mut df: DataFrame, ctx: &DynamicContext) -> Result<DataFrame> {
        // Step 1 (§4.7): for each key, three native columns — type tag,
        // string value, double value — that Spark SQL can group on. All
        // keys are computed by ONE UDF so the row's variables are decoded
        // once, then the native cells are cheap extractions.
        let all_keys_udf = {
            let base = ctx.enter_executor();
            let specs = self.key_specs();
            let mut uses: Vec<Arc<str>> = Vec::new();
            for u in self.keys.iter().flat_map(|k| &k.uses) {
                if !uses.contains(u) {
                    uses.push(Arc::clone(u));
                }
            }
            let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
            DfExpr::udf("groupkeys", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                let mut cells = Vec::with_capacity(specs.len() * 3);
                if let Err(e) = group_key_cells(&specs, &child, &mut cells) {
                    task_bail(e)
                }
                Value::List(Arc::new(cells))
            })
        };
        df = df.with_column("__keys", all_keys_udf, DataType::List)?;
        for (cell, field) in group_key_fields(self.keys.len()).into_iter().enumerate() {
            let extract = DfExpr::udf(
                field.name.clone(),
                Some(vec!["__keys".to_string()]),
                move |schema: &Schema, row: &[Value]| {
                    let idx = schema.index_of("__keys").expect("encoded column exists");
                    match &row[idx] {
                        Value::List(l) => l[cell].clone(),
                        _ => task_bail("encoded key must be a list"),
                    }
                },
            );
            df = df.with_column(field.name, extract, field.dtype)?;
        }
        df = df.drop_columns(&["__keys"])?;

        // Step 2: pre-compute sequence lengths for count-only variables.
        for (var, len_only) in self.carried() {
            if !len_only {
                continue;
            }
            let var2 = Arc::clone(&var);
            let len_udf = DfExpr::udf(
                format!("len ${var}"),
                Some(vec![var.to_string()]),
                move |schema: &Schema, row: &[Value]| {
                    let idx = schema.index_of(&var2).expect("variable column exists");
                    let Value::Bin(b) = &row[idx] else { task_bail("variable column must be Bin") };
                    match decode_items(b) {
                        Ok(items) => Value::I64(items.len() as i64),
                        Err(e) => task_bail(e),
                    }
                },
            );
            df = df.with_column(format!("__len_{var}"), len_udf, DataType::I64)?;
        }
        Ok(df)
    }
}

/// Grouping keys as evaluated per tuple: `(expr, var)`, where a bare
/// `$var` key has no expression.
type GroupKeySpecs = Arc<Vec<(Option<ExprRef>, Arc<str>)>>;

/// The native key columns of §4.7, three per key: `__k{i}t` (type tag),
/// `__k{i}s` (string value), `__k{i}d` (double value).
fn group_key_fields(keys: usize) -> Vec<Field> {
    (0..keys)
        .flat_map(|i| {
            [("t", DataType::I64), ("s", DataType::Str), ("d", DataType::F64)]
                .map(|(suffix, dtype)| Field::new(format!("__k{i}{suffix}"), dtype))
        })
        .collect()
}

/// Appends the §4.7 native cells of every grouping key evaluated in `ctx`
/// (the layout of [`group_key_fields`]). The one encoding of grouping keys
/// into cells, shared by the fused row builder and the frame-path UDF.
fn group_key_cells(
    specs: &GroupKeySpecs,
    ctx: &DynamicContext,
    cells: &mut Vec<Value>,
) -> Result<()> {
    for (expr, var) in specs.iter() {
        let key = match expr {
            Some(e) => group_key(&e.materialize(ctx)?)?,
            None => group_key(ctx.lookup(var).as_deref().map_or(&[], |s| s.as_slice()))?,
        };
        let (t, s, d) = key.encode();
        cells.extend([Value::I64(t), Value::Str(s), Value::F64(d)]);
    }
    Ok(())
}

/// Accumulated per-group state on the local path.
enum LocalAgg {
    Items(Vec<Item>),
    Count(i64),
}

impl ClauseIterator for GroupByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        // Keys may be empty sequences; count-only outputs are single
        // integers; materialized outputs are arbitrary sequences.
        self.nongrouping
            .iter()
            .any(|(v, usage)| v.as_ref() == var && *usage == NonGroupingUsage::CountOnly)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // Grouping is a pipeline breaker: materialize the parent stream.
        let mut groups: HashMap<Vec<crate::item::GroupKey>, Vec<LocalAgg>> = HashMap::new();
        let mut order: Vec<Vec<crate::item::GroupKey>> = Vec::new();
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut key = Vec::with_capacity(self.keys.len());
            for spec in &self.keys {
                let value: Vec<Item> = match &spec.expr {
                    Some(e) => e.materialize(&child)?,
                    None => t.get(&spec.var).map(|s| s.to_vec()).unwrap_or_default(),
                };
                key.push(group_key(&value)?);
            }
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                self.nongrouping
                    .iter()
                    .map(|(_, usage)| match usage {
                        NonGroupingUsage::CountOnly => LocalAgg::Count(0),
                        _ => LocalAgg::Items(Vec::new()),
                    })
                    .collect()
            });
            for ((var, usage), acc) in self.nongrouping.iter().zip(entry.iter_mut()) {
                let bound = t.get(var).cloned().unwrap_or_else(crate::item::empty_seq);
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => *n += bound.len() as i64,
                    (_, LocalAgg::Items(items)) => items.extend(bound.iter().cloned()),
                    _ => unreachable!("accumulator kinds are fixed per variable"),
                }
            }
        }
        let keys: Vec<Arc<str>> = self.keys.iter().map(|k| Arc::clone(&k.var)).collect();
        let nongrouping = self.nongrouping.clone();
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let aggs = groups.remove(&key).expect("key recorded on insert");
            let mut t = Tuple::new();
            for (k, var) in key.iter().zip(&keys) {
                let value = match k.to_item() {
                    Some(i) => seq(vec![i]),
                    None => crate::item::empty_seq(),
                };
                t = t.extended(Arc::clone(var), value);
            }
            for ((var, usage), acc) in nongrouping.iter().zip(aggs) {
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => {
                        t = t.extended(Arc::clone(var), seq(vec![Item::Integer(n)]));
                    }
                    (_, LocalAgg::Items(items)) => {
                        t = t.extended(Arc::clone(var), seq(items));
                    }
                    _ => unreachable!(),
                }
            }
            out.push(Ok(t));
        }
        Ok(Box::new(out.into_iter()))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        // Steps 1–2: the grouping input — key cells plus what the
        // non-grouping variables contribute — built straight from items
        // when the parent is a fused prefix, else from the parent's frame.
        let df = match self.parent.fused_scan() {
            Some(scan) if scan.is_rdd(ctx) => self.fused_input(scan, ctx)?,
            _ => {
                let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
                self.frame_input(f.df, ctx)?
            }
        };

        // Step 3: the native GROUP BY, with SEQUENCE(x) ≈ COLLECT_LIST and
        // the COUNT optimization of §4.7.
        let key_cols: Vec<String> =
            group_key_fields(self.keys.len()).into_iter().map(|f| f.name).collect();
        let key_col_refs: Vec<&str> = key_cols.iter().map(|s| s.as_str()).collect();
        let mut aggs: Vec<(Agg, String)> = Vec::new();
        for (var, usage) in &self.nongrouping {
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    aggs.push((Agg::CollectList(var.to_string()), format!("__agg_{var}")));
                }
                NonGroupingUsage::CountOnly => {
                    if self.parent.is_unit_var(var) {
                        aggs.push((Agg::Count, format!("__agg_{var}")));
                    } else {
                        aggs.push((Agg::Sum(format!("__len_{var}")), format!("__agg_{var}")));
                    }
                }
            }
        }
        let grouped = df.group_by(&key_col_refs, aggs)?;

        // Step 4: project back to variable columns — rebuild the key item
        // from its encoded triple, merge collected lists into one sequence.
        let mut exprs: Vec<NamedExpr> = Vec::new();
        for (i, spec) in self.keys.iter().enumerate() {
            let (tc, sc, dc) = (format!("__k{i}t"), format!("__k{i}s"), format!("__k{i}d"));
            let rebuild = DfExpr::udf(
                format!("rebuild ${}", spec.var),
                Some(vec![tc.clone(), sc.clone(), dc.clone()]),
                move |schema: &Schema, row: &[Value]| {
                    let t = row[schema.index_of(&tc).expect("tag col")].as_i64().unwrap_or(0);
                    let s = row[schema.index_of(&sc).expect("str col")].clone();
                    let d = row[schema.index_of(&dc).expect("dbl col")].as_f64().unwrap_or(0.0);
                    let key = match t {
                        1 | 7 => crate::item::GroupKey::Empty,
                        2 => crate::item::GroupKey::Null,
                        3 => crate::item::GroupKey::Bool(true),
                        4 => crate::item::GroupKey::Bool(false),
                        5 => crate::item::GroupKey::Str(match s {
                            Value::Str(s) => s,
                            _ => Arc::from(""),
                        }),
                        6 => crate::item::GroupKey::Num(d),
                        _ => task_bail(format!("bad key tag {t}")),
                    };
                    match key.to_item() {
                        Some(i) => bin_of(&[i]),
                        None => bin_of(&[]),
                    }
                },
            );
            exprs.push(NamedExpr {
                name: spec.var.to_string(),
                expr: rebuild,
                dtype: DataType::Bin,
            });
        }
        for (var, usage) in &self.nongrouping {
            let agg_col = format!("__agg_{var}");
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    let merge = DfExpr::udf(
                        format!("merge ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let Value::List(parts) = &row[idx] else {
                                task_bail("collect_list output must be a list")
                            };
                            let mut items = Vec::new();
                            for p in parts.iter() {
                                let Value::Bin(b) = p else { task_bail("expected Bin parts") };
                                match decode_items(b) {
                                    Ok(v) => items.extend(v),
                                    Err(e) => task_bail(e),
                                }
                            }
                            bin_of(&items)
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: merge,
                        dtype: DataType::Bin,
                    });
                }
                NonGroupingUsage::CountOnly => {
                    let count = DfExpr::udf(
                        format!("count ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let n = row[idx].as_i64().unwrap_or(0);
                            bin_of(&[Item::Integer(n)])
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: count,
                        dtype: DataType::Bin,
                    });
                }
            }
        }
        let df = grouped.select(exprs)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// order by
// ---------------------------------------------------------------------------

/// One `order by` key.
pub struct OrderSpecIter {
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    pub descending: bool,
    pub empty_greatest: bool,
}

/// A normalized sort key (§4.8): empty < null < false < true < value, with
/// `empty greatest` flipping the first rank.
#[derive(Clone, Debug)]
enum OrderKey {
    Empty,
    Null,
    Bool(bool),
    Str(Arc<str>),
    Num(f64),
}

impl OrderKey {
    fn of(items: &[Item]) -> Result<OrderKey> {
        match items {
            [] => Ok(OrderKey::Empty),
            [one] => match one {
                Item::Null => Ok(OrderKey::Null),
                Item::Boolean(b) => Ok(OrderKey::Bool(*b)),
                Item::Str(s) => Ok(OrderKey::Str(Arc::clone(s))),
                Item::Integer(v) => Ok(OrderKey::Num(*v as f64)),
                Item::Decimal(d) => Ok(OrderKey::Num(d.to_f64())),
                Item::Double(v) => Ok(OrderKey::Num(*v)),
                other => Err(RumbleError::type_err(format!(
                    "order-by keys must be atomic, got {}",
                    other.type_name()
                ))),
            },
            _ => Err(RumbleError::type_err("order-by keys must be single items or empty")),
        }
    }

    /// The value class (bool/str/num) for compatibility checking; `None`
    /// for empty/null which compare with everything.
    fn class(&self) -> Option<u8> {
        match self {
            OrderKey::Empty | OrderKey::Null => None,
            OrderKey::Bool(_) => Some(1),
            OrderKey::Str(_) => Some(2),
            OrderKey::Num(_) => Some(3),
        }
    }

    fn rank(&self, empty_greatest: bool) -> u8 {
        match self {
            OrderKey::Empty => {
                if empty_greatest {
                    9
                } else {
                    0
                }
            }
            OrderKey::Null => 1,
            OrderKey::Bool(false) => 2,
            OrderKey::Bool(true) => 3,
            OrderKey::Str(_) | OrderKey::Num(_) => 4,
        }
    }

    fn cmp_same_rank(&self, other: &OrderKey) -> std::cmp::Ordering {
        match (self, other) {
            (OrderKey::Str(a), OrderKey::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (OrderKey::Num(a), OrderKey::Num(b)) => a.total_cmp(b),
            _ => std::cmp::Ordering::Equal,
        }
    }
}

/// `order by expr [descending] [empty greatest], …` (§4.8).
pub struct OrderByClauseIter {
    pub parent: ClauseRef,
    pub specs: Vec<OrderSpecIter>,
    /// The in-scope variables a later clause or the return expression
    /// reads: the only ones the sorted frame carries.
    pub carried: Vec<Arc<str>>,
}

impl OrderByClauseIter {
    fn key_specs(&self) -> OrderKeySpecs {
        Arc::new(self.specs.iter().map(|sp| (Arc::clone(&sp.expr), sp.empty_greatest)).collect())
    }

    /// The sort input from the items of a fused prefix: one closure runs
    /// the prefix, encodes the carried variables and computes the native
    /// key cells.
    fn fused_input(&self, scan: FusedScan, ctx: &DynamicContext) -> Result<DataFrame> {
        let specs = self.key_specs();
        let carried = self.carried.clone();
        let mut fields: Vec<Field> =
            carried.iter().map(|v| Field::new(v.as_ref(), DataType::Bin)).collect();
        fields.extend(order_key_fields(self.specs.len()));
        let mut live = carried.clone();
        live.extend(self.specs.iter().flat_map(|sp| sp.uses.iter().cloned()));
        let width = fields.len();
        let (rdd, eval) = scan.plan(ctx, &live)?;
        let rows = eval.flat_map(rdd, move |ctx| {
            let mut row = Vec::with_capacity(width);
            for var in &carried {
                row.push(bin_of(&ctx.lookup(var).unwrap_or_else(crate::item::empty_seq)));
            }
            order_key_cells(&specs, ctx, &mut row)?;
            Ok([row])
        });
        Ok(DataFrame::from_rdd(Schema::new(fields), &rows))
    }

    /// The sort input over the parent's tuple frame: the columns of the
    /// carried variables plus the native key cells.
    fn frame_input(&self, f: TupleFrame, ctx: &DynamicContext) -> Result<DataFrame> {
        let mut df = f.df;
        // All keys are computed by ONE UDF (one row decode), then extracted.
        let all_ord_udf = {
            let base = ctx.enter_executor();
            let specs = self.key_specs();
            let mut uses: Vec<Arc<str>> = Vec::new();
            for u in self.specs.iter().flat_map(|sp| &sp.uses) {
                if !uses.contains(u) {
                    uses.push(Arc::clone(u));
                }
            }
            let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
            DfExpr::udf("orderkeys", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                let mut cells = Vec::with_capacity(specs.len() * 4);
                if let Err(e) = order_key_cells(&specs, &child, &mut cells) {
                    task_bail(e)
                }
                Value::List(Arc::new(cells))
            })
        };
        df = df.with_column("__ord", all_ord_udf, DataType::List)?;
        for (cell, field) in order_key_fields(self.specs.len()).into_iter().enumerate() {
            let extract = DfExpr::udf(
                field.name.clone(),
                Some(vec!["__ord".to_string()]),
                move |schema: &Schema, row: &[Value]| {
                    let idx = schema.index_of("__ord").expect("encoded column exists");
                    match &row[idx] {
                        Value::List(l) => l[cell].clone(),
                        _ => task_bail("encoded order key must be a list"),
                    }
                },
            );
            df = df.with_column(field.name, extract, field.dtype)?;
        }
        // Only now drop the variables no later clause reads: a key may
        // still have needed them.
        let mut dead: Vec<&str> =
            f.vars.iter().filter(|v| !self.carried.contains(v)).map(|v| v.as_ref()).collect();
        dead.push("__ord");
        Ok(df.drop_columns(&dead)?)
    }

    /// Checks that one key class is compatible with the classes seen so far
    /// for its spec; JSONiq requires an error on e.g. strings mixed with
    /// numbers.
    fn merge_class(seen: &mut Option<u8>, class: Option<u8>) -> Result<()> {
        if let Some(c) = class {
            match seen {
                None => *seen = Some(c),
                Some(existing) if *existing == c => {}
                Some(_) => {
                    return Err(RumbleError::dynamic(
                        codes::INCOMPATIBLE_SORT_KEYS,
                        "order-by keys mix incompatible types (e.g. strings and numbers)",
                    ))
                }
            }
        }
        Ok(())
    }
}

impl ClauseIterator for OrderByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // A pipeline breaker: materialize, key, verify, sort.
        let mut rows: Vec<(Vec<OrderKey>, Tuple)> = Vec::new();
        let mut classes: Vec<Option<u8>> = vec![None; self.specs.len()];
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut keys = Vec::with_capacity(self.specs.len());
            for (spec, seen) in self.specs.iter().zip(classes.iter_mut()) {
                let items = spec.expr.materialize(&child)?;
                let k = OrderKey::of(&items)?;
                Self::merge_class(seen, k.class())?;
                keys.push(k);
            }
            rows.push((keys, t));
        }
        let specs: Vec<(bool, bool)> =
            self.specs.iter().map(|s| (s.descending, s.empty_greatest)).collect();
        rows.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (descending, empty_greatest)) in ka.iter().zip(kb).zip(&specs) {
                let o = a
                    .rank(*empty_greatest)
                    .cmp(&b.rank(*empty_greatest))
                    .then_with(|| a.cmp_same_rank(b));
                let o = if *descending { o.reverse() } else { o };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(Box::new(rows.into_iter().map(|(_, t)| Ok(t))))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        // Encode every sort key into native columns — tag, string, double,
        // plus a class column for the §4.8 type-discovery pass — straight
        // from items when the parent is a fused prefix.
        let df = match self.parent.fused_scan() {
            Some(scan) if scan.is_rdd(ctx) => self.fused_input(scan, ctx)?,
            _ => {
                let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
                self.frame_input(f, ctx)?
            }
        };

        // Materialize once: the discovery pass and the sort's sampling +
        // partitioning passes would otherwise each recompute the whole
        // upstream pipeline (Spark serves these from shuffle files).
        let df = df.cache()?;

        // Type-discovery pass (§4.8): one job over the class columns.
        {
            let rows = df.to_rdd()?;
            let schema = Arc::clone(df.schema());
            let class_idx: Vec<usize> = (0..self.specs.len())
                .map(|i| schema.index_of(&format!("__o{i}c")).expect("class column"))
                .collect();
            let n = self.specs.len();
            let idx = Arc::new(class_idx);
            let idx2 = Arc::clone(&idx);
            let masks = rows.aggregate(
                vec![0u8; n],
                move |mut acc, row| {
                    for (slot, i) in acc.iter_mut().zip(idx.iter()) {
                        if let Value::I64(c) = row[*i] {
                            if c > 0 {
                                *slot |= 1 << (c as u8);
                            }
                        }
                    }
                    acc
                },
                move |mut a, b| {
                    let _ = &idx2;
                    for (x, y) in a.iter_mut().zip(b) {
                        *x |= y;
                    }
                    a
                },
            )?;
            for mask in masks {
                if mask.count_ones() > 1 {
                    return Err(RumbleError::dynamic(
                        codes::INCOMPATIBLE_SORT_KEYS,
                        "order-by keys mix incompatible types (e.g. strings and numbers)",
                    ));
                }
            }
        }

        // The actual sort on native columns, then drop the scaffolding.
        let mut sort_keys: Vec<(String, SortDir)> = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let dir = if spec.descending { SortDir::desc() } else { SortDir::asc() };
            sort_keys.push((format!("__o{i}t"), dir));
            sort_keys.push((format!("__o{i}s"), dir));
            sort_keys.push((format!("__o{i}d"), dir));
        }
        let df = df.order_by(sort_keys)?;
        let drop: Vec<String> =
            order_key_fields(self.specs.len()).into_iter().map(|f| f.name).collect();
        let drop_refs: Vec<&str> = drop.iter().map(|s| s.as_str()).collect();
        let df = df.drop_columns(&drop_refs)?;
        Ok(Some(TupleFrame { df, vars: self.carried.clone() }))
    }
}

/// Order keys as evaluated per tuple: `(expr, empty greatest)`.
type OrderKeySpecs = Arc<Vec<(ExprRef, bool)>>;

/// The native sort-key columns of §4.8, four per key: `__o{i}t` (rank),
/// `__o{i}s` (string value), `__o{i}d` (double value), `__o{i}c` (value
/// class for type discovery).
fn order_key_fields(keys: usize) -> Vec<Field> {
    (0..keys)
        .flat_map(|i| {
            [("t", DataType::I64), ("s", DataType::Str), ("d", DataType::F64), ("c", DataType::I64)]
                .map(|(suffix, dtype)| Field::new(format!("__o{i}{suffix}"), dtype))
        })
        .collect()
}

/// Appends the native cells of every order key evaluated in `ctx` (the
/// layout of [`order_key_fields`]). The one encoding of order keys into
/// cells, shared by the fused row builder and the frame-path UDF.
fn order_key_cells(
    specs: &OrderKeySpecs,
    ctx: &DynamicContext,
    cells: &mut Vec<Value>,
) -> Result<()> {
    for (expr, empty_greatest) in specs.iter() {
        let key = OrderKey::of(&expr.materialize(ctx)?)?;
        let (sv, d) = match &key {
            OrderKey::Str(sv) => (Arc::clone(sv), 0.0),
            OrderKey::Num(n) => (Arc::from(""), *n),
            _ => (Arc::from(""), 0.0),
        };
        cells.extend([
            Value::I64(key.rank(*empty_greatest) as i64),
            Value::Str(sv),
            Value::F64(d),
            Value::I64(key.class().map(|c| c as i64).unwrap_or(0)),
        ]);
    }
    Ok(())
}

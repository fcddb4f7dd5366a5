//! FLWOR expressions: tuple streams with two physical forms.
//!
//! Each clause (except `return`) is a [`ClauseIterator`] producing a tuple
//! stream (§4.2). A tuple maps variable names to *materialized* sequences
//! of items. Every clause offers:
//!
//! * a **local pull API** ([`ClauseIterator::tuples`]), and
//! * a **DataFrame API** ([`ClauseIterator::frame`]) where the tuple stream
//!   is a DataFrame with one serialized-sequence (`Bin`) column per
//!   in-scope variable (§4.3). `frame` returns `None` when the stream
//!   cannot be distributed (e.g. the FLWOR starts from a local `let`),
//!   in which case the whole expression falls back to local execution —
//!   exactly the seamless switching of §5.8.
//!
//! A distributed prefix `for $v in <rdd> (let … | where …)*` skips the
//! per-clause frames ([`ClauseIterator::fused_scan`]): one per-item
//! evaluator runs it, and its consumer — the return clause, a `group by`
//! or an `order by` — reads the final context directly.
//!
//! The `return` clause lives in [`FlworIter`], which is an ordinary
//! expression iterator: in DataFrame mode it maps the frame back to an
//! `Rdd<Item>` with a flatMap (§4.10).

pub mod clauses;

use crate::error::Result;
use crate::item::{decode_items, encode_items, Item, Sequence};
use crate::runtime::{cursor_of, eval_ebv, DynamicContext, ExprIterator, ExprRef, ItemCursor};
use sparklite::dataframe::{DataFrame, Schema, Value};
use sparklite::rdd::{task_bail, Rdd};
use std::sync::Arc;

/// One tuple of a tuple stream: variable name → materialized sequence.
#[derive(Clone, Debug, Default)]
pub struct Tuple {
    bindings: Vec<(Arc<str>, Sequence)>,
}

impl Tuple {
    pub fn new() -> Tuple {
        Tuple::default()
    }

    pub fn get(&self, name: &str) -> Option<&Sequence> {
        self.bindings.iter().rev().find(|(n, _)| n.as_ref() == name).map(|(_, s)| s)
    }

    /// A copy with one binding added (replacing any previous binding of the
    /// same name — variable redeclaration, §4.5).
    pub fn extended(&self, name: Arc<str>, value: Sequence) -> Tuple {
        let mut bindings: Vec<(Arc<str>, Sequence)> =
            self.bindings.iter().filter(|(n, _)| n.as_ref() != name.as_ref()).cloned().collect();
        bindings.push((name, value));
        Tuple { bindings }
    }

    /// Binds every tuple variable into a dynamic context — the tuple's
    /// contribution to the context nested expressions see (§4.2).
    pub fn bind_into(&self, ctx: &DynamicContext) -> DynamicContext {
        ctx.bind_many(self.bindings.clone())
    }

    pub fn vars(&self) -> impl Iterator<Item = &Arc<str>> {
        self.bindings.iter().map(|(n, _)| n)
    }
}

/// A cursor over a tuple stream.
pub type TupleCursor = Box<dyn Iterator<Item = Result<Tuple>> + Send>;

/// The DataFrame form of a tuple stream: one `Bin` column per variable,
/// holding the codec-serialized sequence bound to it.
pub struct TupleFrame {
    pub df: DataFrame,
    /// The in-scope variables, in column order.
    pub vars: Vec<Arc<str>>,
}

/// A FLWOR clause.
pub trait ClauseIterator: Send + Sync {
    /// Variables in scope after this clause.
    fn out_vars(&self) -> &[Arc<str>];

    /// Local tuple-at-a-time evaluation (§5.5).
    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor>;

    /// DataFrame evaluation (§4.4–§4.9); `None` if this pipeline cannot be
    /// distributed.
    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>>;

    /// Whether `var` is statically known to be bound to exactly one item in
    /// every tuple (a `for` or `count` binding). Lets `count($var)` after a
    /// group-by become a plain row COUNT (§4.7).
    fn is_unit_var(&self, _var: &str) -> bool {
        false
    }

    /// The clause chain as a fused prefix — an initial simple `for` over one
    /// source followed by any chain of `let` and `where` clauses — if it has
    /// that shape. Fused prefixes run straight over the item RDD: one
    /// per-item evaluator ([`ItemEval`]) turns each item into the final
    /// dynamic context, with no Bin-column DataFrame detour and so no
    /// per-row encode/decode between the scan and the consumer (the return
    /// clause, or the row builder of a `group by` / `order by`).
    fn fused_scan(&self) -> Option<FusedScan> {
        None
    }
}

pub type ClauseRef = Arc<dyn ClauseIterator>;

/// See [`ClauseIterator::fused_scan`]: `for $var in source` followed by
/// `let` / `where` steps in clause order.
pub struct FusedScan {
    pub var: Arc<str>,
    pub source: ExprRef,
    pub steps: Vec<FusedStep>,
}

/// One clause of a fused prefix after the initial `for`, with the FLWOR
/// variables its expression reads.
pub enum FusedStep {
    Let { var: Arc<str>, expr: ExprRef, uses: Vec<Arc<str>> },
    Where { predicate: ExprRef, uses: Vec<Arc<str>> },
}

impl FusedScan {
    /// Whether the prefix runs over a distributed source in `ctx`.
    pub fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !ctx.in_executor() && self.source.is_rdd(ctx)
    }

    /// Plans the prefix for a consumer that reads the variables `live`:
    /// the source RDD, with the leading `where`s that compile to an
    /// [`ItemPredicate`](crate::runtime::ItemPredicate) applied as plain
    /// filters (no per-item context), plus the evaluator for the remaining
    /// steps. A `let` whose variable nothing downstream reads is dropped
    /// and never evaluated, as `PruneColumns` drops its column on the frame
    /// path.
    pub fn plan(self, ctx: &DynamicContext, live: &[Arc<str>]) -> Result<(Rdd<Item>, ItemEval)> {
        let mut rdd = self.source.rdd(ctx)?;
        let mut steps = live_steps(self.steps, live).into_iter().peekable();
        while let Some(FusedStep::Where { predicate, .. }) = steps.peek() {
            let Some(p) = predicate.item_predicate(&self.var) else { break };
            rdd = rdd.filter(move |item| match p(item) {
                Ok(b) => b,
                Err(e) => task_bail(e),
            });
            steps.next();
        }
        let eval = ItemEval { var: self.var, base: ctx.enter_executor(), steps: steps.collect() };
        Ok((rdd, eval))
    }
}

/// Drops every `let` whose variable is dead at that point: walking the
/// steps backwards from the consumer's `live` set, a `let` is kept only if
/// a later step or the consumer reads its variable.
fn live_steps(steps: Vec<FusedStep>, live: &[Arc<str>]) -> Vec<FusedStep> {
    let mut live: Vec<Arc<str>> = live.to_vec();
    let mut kept = Vec::with_capacity(steps.len());
    for step in steps.into_iter().rev() {
        match &step {
            FusedStep::Let { var, uses, .. } => {
                let Some(at) = live.iter().position(|v| v == var) else { continue };
                live.swap_remove(at);
                live.extend(uses.iter().cloned());
            }
            FusedStep::Where { uses, .. } => live.extend(uses.iter().cloned()),
        }
        kept.push(step);
    }
    kept.reverse();
    kept
}

/// The per-item evaluator of a fused prefix: binds the scan variable to
/// one item, then runs the `let` / `where` steps in clause order.
pub struct ItemEval {
    var: Arc<str>,
    /// Executor-flagged driver context the per-item bindings chain onto.
    base: DynamicContext,
    steps: Vec<FusedStep>,
}

impl ItemEval {
    /// Whether the scan variable still names the item after the steps:
    /// no `let` rebinds it.
    pub fn keeps_item(&self) -> bool {
        !self.steps.iter().any(|s| matches!(s, FusedStep::Let { var, .. } if *var == self.var))
    }

    /// Runs the steps over every item of `rdd`, then `consume` over the
    /// final context of each item they keep; an error in either aborts the
    /// task with its JSONiq error.
    pub fn flat_map<U: sparklite::Data, I>(
        self,
        rdd: Rdd<Item>,
        consume: impl Fn(&DynamicContext) -> Result<I> + Send + Sync + 'static,
    ) -> Rdd<U>
    where
        I: IntoIterator<Item = U> + Send + 'static,
        I::IntoIter: Send + 'static,
    {
        rdd.flat_map(move |item| {
            match self.eval(item).and_then(|ctx| ctx.map(|ctx| consume(&ctx)).transpose()) {
                Ok(out) => out.into_iter().flatten(),
                Err(e) => task_bail(e),
            }
        })
    }

    /// The items the steps keep, for a consumer that reads only the item
    /// itself.
    pub fn filter(self, rdd: Rdd<Item>) -> Rdd<Item> {
        if self.steps.is_empty() {
            return rdd;
        }
        rdd.filter(move |item| match self.eval(item.clone()) {
            Ok(ctx) => ctx.is_some(),
            Err(e) => task_bail(e),
        })
    }

    /// The dynamic context after the last step, or `None` when a `where`
    /// drops the item.
    pub fn eval(&self, item: Item) -> Result<Option<DynamicContext>> {
        let mut ctx = self.base.bind(Arc::clone(&self.var), Arc::new(vec![item]));
        for step in self.steps.iter() {
            match step {
                FusedStep::Let { var, expr, .. } => {
                    let items = expr.materialize(&ctx)?;
                    ctx = ctx.bind(Arc::clone(var), Arc::new(items));
                }
                FusedStep::Where { predicate, .. } => {
                    if !eval_ebv(predicate, &ctx)? {
                        return Ok(None);
                    }
                }
            }
        }
        Ok(Some(ctx))
    }
}

// ---------------------------------------------------------------------------
// Row ↔ context bridging used by every DataFrame-mode UDF
// ---------------------------------------------------------------------------

/// Decodes the `uses` columns of a row into variable bindings on top of
/// `base` (which must already be executor-flagged).
pub(crate) fn ctx_from_row(
    base: &DynamicContext,
    schema: &Schema,
    row: &[Value],
    uses: &[Arc<str>],
) -> DynamicContext {
    let mut bindings = Vec::with_capacity(uses.len());
    for var in uses {
        let Some(idx) = schema.index_of(var) else { continue };
        let Value::Bin(bytes) = &row[idx] else { continue };
        match decode_items(bytes) {
            Ok(items) => bindings.push((Arc::clone(var), Arc::new(items))),
            Err(e) => task_bail(e),
        }
    }
    base.bind_many(bindings)
}

/// Serializes a sequence into a `Bin` cell.
pub(crate) fn bin_of(items: &[Item]) -> Value {
    Value::Bin(Arc::from(encode_items(items).into_boxed_slice()))
}

// ---------------------------------------------------------------------------
// The FLWOR expression itself
// ---------------------------------------------------------------------------

/// A complete FLWOR expression: the clause chain plus the return expression.
pub struct FlworIter {
    pub last: ClauseRef,
    pub return_expr: ExprRef,
    /// Free FLWOR variables of the return expression.
    pub return_uses: Vec<Arc<str>>,
    /// Memo of the last `frame()` probe, keyed by context identity.
    /// `is_rdd` and `rdd` are both asked per evaluation; without the memo an
    /// order-by frame would run its cache/type-discovery jobs twice.
    frame_memo: parking_lot::Mutex<Option<(usize, Option<TupleFrame>)>>,
}

impl FlworIter {
    pub fn new(last: ClauseRef, return_expr: ExprRef, return_uses: Vec<Arc<str>>) -> FlworIter {
        FlworIter { last, return_expr, return_uses, frame_memo: parking_lot::Mutex::new(None) }
    }

    fn frame_for(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let mut memo = self.frame_memo.lock();
        if let Some((id, cached)) = memo.as_ref() {
            if *id == ctx.id() {
                return Ok(cached
                    .as_ref()
                    .map(|f| TupleFrame { df: f.df.clone(), vars: f.vars.clone() }));
            }
        }
        let frame = self.last.frame(ctx)?;
        *memo = Some((
            ctx.id(),
            frame.as_ref().map(|f| TupleFrame { df: f.df.clone(), vars: f.vars.clone() }),
        ));
        Ok(frame)
    }

    /// Builds the fused (DataFrame-free) RDD for prefix-shaped pipelines:
    /// the prefix's per-item evaluator and the return expression run as one
    /// flatMap directly over items.
    fn fused_rdd(&self, scan: FusedScan, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let var = Arc::clone(&scan.var);
        let (rdd, eval) = scan.plan(ctx, &self.return_uses)?;
        if let Some(keys) = self.return_expr.key_path(&var).filter(|_| eval.keeps_item()) {
            // `return $v` (or a static path on it) reads only the item.
            let rdd = eval.filter(rdd);
            if keys.is_empty() {
                return Ok(rdd);
            }
            return Ok(
                rdd.flat_map(move |item| crate::runtime::follow_key_path(&item, &keys).cloned())
            );
        }
        let ret = Arc::clone(&self.return_expr);
        Ok(eval.flat_map(rdd, move |child| ret.materialize(child)))
    }
}

impl ExprIterator for FlworIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(self.materialize(ctx)?));
        }
        let return_expr = Arc::clone(&self.return_expr);
        let ctx = ctx.clone();
        let tuples = self.last.tuples(&ctx)?;
        Ok(Box::new(ReturnCursor { tuples, return_expr, ctx, inner: None, failed: false }))
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        if ctx.in_executor() {
            return false;
        }
        if let Some(scan) = self.last.fused_scan() {
            return scan.is_rdd(ctx);
        }
        matches!(self.frame_for(ctx), Ok(Some(_)))
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        if let Some(scan) = self.last.fused_scan() {
            if scan.is_rdd(ctx) {
                return self.fused_rdd(scan, ctx);
            }
        }
        let frame = self.frame_for(ctx)?.ok_or_else(|| {
            crate::error::RumbleError::dynamic(
                crate::error::codes::CLUSTER,
                "FLWOR tuple stream has no DataFrame form",
            )
        })?;
        // §4.10: the return clause maps each row of the DataFrame to the
        // items produced by the return expression — one flatMap back to an
        // RDD of items.
        let rows = frame.df.to_rdd()?;
        let schema = Arc::clone(frame.df.schema());
        let uses: Arc<Vec<Arc<str>>> = Arc::new(self.return_uses.clone());
        let return_expr = Arc::clone(&self.return_expr);
        let base = ctx.enter_executor();
        Ok(rows.flat_map(move |row| {
            let child = ctx_from_row(&base, &schema, &row, &uses);
            match return_expr.materialize(&child) {
                Ok(items) => items,
                Err(e) => task_bail(e),
            }
        }))
    }

    fn mode_hint(&self, ctx: &DynamicContext) -> Option<&'static str> {
        if self.last.fused_scan().is_some_and(|scan| scan.is_rdd(ctx)) {
            return Some("rdd (fused)");
        }
        if let Ok(Some(frame)) = self.frame_for(ctx) {
            // §4.7/§4.9: DataFrame execution is columnar; report whether the
            // physical compiler will fuse adjacent batch operators so the
            // observed-mode surface stays truthful.
            if frame.df.fused_pipeline() {
                return Some("dataframe (fused)");
            }
            return Some("dataframe");
        }
        None
    }
}

/// Local return: one cursor of items per tuple, streamed.
struct ReturnCursor {
    tuples: TupleCursor,
    return_expr: ExprRef,
    ctx: DynamicContext,
    inner: Option<ItemCursor>,
    failed: bool,
}

impl Iterator for ReturnCursor {
    type Item = Result<Item>;

    fn next(&mut self) -> Option<Result<Item>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(Ok(i)) => return Some(Ok(i)),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => self.inner = None,
                }
            }
            match self.tuples.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(tuple)) => {
                    let child = tuple.bind_into(&self.ctx);
                    match self.return_expr.open(&child) {
                        Ok(c) => self.inner = Some(c),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::seq;

    #[test]
    fn tuple_extension_and_shadowing() {
        let t = Tuple::new()
            .extended(Arc::from("x"), seq(vec![Item::Integer(1)]))
            .extended(Arc::from("y"), seq(vec![Item::Integer(2)]));
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1));
        let t2 = t.extended(Arc::from("x"), seq(vec![Item::Integer(9)]));
        assert_eq!(t2.get("x").unwrap()[0], Item::Integer(9));
        assert_eq!(t2.vars().count(), 2, "redeclaration replaces, not duplicates");
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1), "original untouched");
    }

    /// An engine with `/fused-unit.json` holding objects whose `s` field is
    /// not castable to an integer.
    fn messy_engine() -> crate::Rumble {
        let r = crate::Rumble::default_local();
        let lines: String =
            (0..20).map(|i| format!("{{\"n\": {}, \"s\": \"x{i}\"}}\n", i % 3)).collect();
        r.hdfs_put("/fused-unit.json", &lines).unwrap();
        r
    }

    #[test]
    fn unused_fused_let_is_never_evaluated() {
        let r = messy_engine();
        // Every shape a fused prefix feeds: the return flatMap, the group-by
        // rows and the order-by rows. `$bad` would raise on every item.
        for (q, expected) in [
            (
                "for $e in json-file(\"hdfs:///fused-unit.json\")
                 let $bad := $e.s cast as integer
                 where $e.n eq 1
                 return $e.n",
                7,
            ),
            (
                "for $e in json-file(\"hdfs:///fused-unit.json\")
                 let $bad := $e.s cast as integer
                 group by $n := $e.n
                 return count($e)",
                3,
            ),
            (
                "for $e in json-file(\"hdfs:///fused-unit.json\")
                 let $bad := $e.s cast as integer
                 order by $e.n
                 return $e.n",
                20,
            ),
        ] {
            let prepared = r.compile(q).unwrap();
            assert!(prepared.is_distributed().unwrap(), "{q}");
            assert_eq!(prepared.collect().unwrap().len(), expected, "{q}");
        }
        // A read of the same variable makes the let live again.
        let used = "for $e in json-file(\"hdfs:///fused-unit.json\")
                    let $bad := $e.s cast as integer
                    return $bad";
        assert!(r.run(used).is_err());
    }

    #[test]
    fn fused_let_cast_failure_matches_local_error_code() {
        let r = messy_engine();
        let body = "let $i := $e.s cast as integer
                    where $e.n ge 0
                    return $i + 1";
        let dist = format!("for $e in json-file(\"hdfs:///fused-unit.json\") {body}");
        let local = format!("let $a := json-file(\"hdfs:///fused-unit.json\") for $e in $a {body}");
        assert!(r.compile(&dist).unwrap().is_distributed().unwrap());
        assert!(!r.compile(&local).unwrap().is_distributed().unwrap());
        let dist_err = r.run(&dist).unwrap_err();
        let local_err = r.run(&local).unwrap_err();
        assert_eq!(dist_err.code, local_err.code, "{dist_err} vs {local_err}");
        assert_eq!(local_err.code, crate::error::codes::INVALID_CAST);
    }

    #[test]
    fn bin_roundtrip() {
        let items = vec![Item::Integer(1), Item::str("x")];
        let v = bin_of(&items);
        let Value::Bin(b) = v else { panic!() };
        assert_eq!(decode_items(&b).unwrap(), items);
    }
}

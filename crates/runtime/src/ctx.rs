//! Execution context for variable-accuracy transforms.
//!
//! When the PetaBricks compiler emits code, each choice site, cutoff and
//! accuracy variable in the source is compiled into a lookup against the
//! active configuration. [`ExecCtx`] plays that role here: a transform's
//! `execute` body asks the context which algorithm to run, how many
//! `for_enough` iterations to perform, and so on. The context also
//! accumulates a deterministic *virtual cost* (what the tuner optimizes,
//! in place of the paper's wall-clock time) and an
//! execution trace from which cycle-shape diagrams (Fig. 8) are drawn.

use pb_config::{Config, ConfigError, Schema, TunableId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One event recorded in the execution trace.
#[derive(Debug, Clone, PartialEq)]
enum TraceEvent {
    /// Entered a named scope (e.g. one multigrid recursion level).
    Enter(String),
    /// Left the innermost open scope.
    Exit,
    /// A point event inside the current scope (e.g. "relax" or
    /// "direct_solve").
    Point(String),
}

/// A tree view of a recorded trace (scopes become nodes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceNode {
    /// Scope label ("" for the root).
    pub label: String,
    /// Point events recorded directly in this scope, in order.
    pub points: Vec<String>,
    /// Nested scopes, in order of entry.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Maximum scope depth below this node (0 for a leaf).
    pub fn depth(&self) -> usize {
        self.children
            .iter()
            .map(|c| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }

    /// Counts point events with the given label in the whole subtree.
    pub fn count_points(&self, label: &str) -> usize {
        self.points.iter().filter(|p| p.as_str() == label).count()
            + self
                .children
                .iter()
                .map(|c| c.count_points(label))
                .sum::<usize>()
    }
}

/// The execution context handed to [`crate::Transform::execute`].
///
/// # Examples
///
/// ```
/// use pb_config::Schema;
/// use pb_runtime::ExecCtx;
///
/// let mut schema = Schema::new("demo");
/// schema.add_choice_site("solver", 2);
/// schema.add_accuracy_variable("iterations", 1, 100);
/// let config = schema.default_config();
/// let mut ctx = ExecCtx::new(&schema, &config, 64, 42);
///
/// let algorithm = ctx.choice("solver").unwrap();
/// assert_eq!(algorithm, 0);
/// let mut work = 0;
/// for _ in 0..ctx.for_enough("iterations").unwrap() {
///     work += 1;
///     ctx.charge(1.0);
/// }
/// assert_eq!(work, 1);
/// assert_eq!(ctx.virtual_cost(), 1.0);
/// ```
#[derive(Debug)]
pub struct ExecCtx<'a> {
    schema: &'a Schema,
    config: &'a Config,
    /// The input size the transform was invoked with; decision trees are
    /// resolved against the *current* size, which recursive transforms
    /// update via [`ExecCtx::with_size`].
    size: u64,
    virtual_cost: f64,
    rng: SmallRng,
    trace: Vec<TraceEvent>,
    trace_enabled: bool,
    open_scopes: usize,
}

impl<'a> ExecCtx<'a> {
    /// Creates a context for one execution of a transform on an input of
    /// size `size`, with a deterministic RNG seeded by `seed`.
    pub fn new(schema: &'a Schema, config: &'a Config, size: u64, seed: u64) -> Self {
        ExecCtx {
            schema,
            config,
            size,
            virtual_cost: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            trace: Vec::new(),
            trace_enabled: false,
            open_scopes: 0,
        }
    }

    /// The schema the active configuration conforms to.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        self.config
    }

    /// The current input size used for decision-tree resolution.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Temporarily switches the context to a smaller size for a
    /// recursive sub-call, running `f` and restoring the size after.
    /// This is how "each recursive call works on a problem with half as
    /// many points" re-resolves its decision trees (§6.1.3).
    pub fn with_size<R>(&mut self, size: u64, f: impl FnOnce(&mut ExecCtx<'a>) -> R) -> R {
        let saved = self.size;
        self.size = size;
        let out = f(self);
        self.size = saved;
        out
    }

    /// Resolves the algorithm index for choice site `name` at the
    /// current size.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown or non-choice tunables.
    pub fn choice(&mut self, name: &str) -> Result<usize, ConfigError> {
        self.config.choice(self.schema, name, self.size)
    }

    /// Reads an integer tunable (cutoff / accuracy variable / user
    /// parameter).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown or mistyped tunables.
    pub fn param(&self, name: &str) -> Result<i64, ConfigError> {
        self.config.int(self.schema, name)
    }

    /// Reads a float tunable.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown or mistyped tunables.
    pub fn float_param(&self, name: &str) -> Result<f64, ConfigError> {
        self.config.float(self.schema, name)
    }

    /// Reads a switch tunable.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown or mistyped tunables.
    pub fn switch(&self, name: &str) -> Result<usize, ConfigError> {
        self.config.switch(self.schema, name)
    }

    /// The iteration count of a `for_enough` loop (§3.2): "syntactic
    /// sugar for adding an accuracy variable to specify the number of
    /// iterations of a traditional loop". The tunable must be an
    /// integer-valued accuracy variable.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown or mistyped tunables.
    pub fn for_enough(&self, name: &str) -> Result<u64, ConfigError> {
        Ok(self.param(name)?.max(0) as u64)
    }

    /// Like [`ExecCtx::choice`] with a pre-resolved id.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`] the by-name accessor would for
    /// a non-choice tunable.
    pub fn choice_by_id(&mut self, id: TunableId) -> Result<usize, ConfigError> {
        self.config.choice_by_id(self.schema, id, self.size)
    }

    /// Like [`ExecCtx::param`] with a pre-resolved id.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`] the by-name accessor would for
    /// a non-integer tunable.
    pub fn param_by_id(&self, id: TunableId) -> Result<i64, ConfigError> {
        self.config.int_by_id(self.schema, id)
    }

    /// Like [`ExecCtx::for_enough`] with a pre-resolved id.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`] the by-name accessor would for
    /// a non-integer tunable.
    pub fn for_enough_by_id(&self, id: TunableId) -> Result<u64, ConfigError> {
        Ok(self.param_by_id(id)?.max(0) as u64)
    }

    /// Deterministic per-execution RNG (seeded by the trial runner so
    /// that training is reproducible).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Adds `units` of deterministic virtual cost. Transforms charge
    /// cost proportional to the work they perform; the deterministic
    /// tuning mode ranks candidates by this instead of wall time.
    pub fn charge(&mut self, units: f64) {
        self.virtual_cost += units;
    }

    /// Total virtual cost charged so far.
    pub fn virtual_cost(&self) -> f64 {
        self.virtual_cost
    }

    /// Enables trace recording (off by default; recording allocates).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Enters a named trace scope. No-op unless tracing is enabled.
    pub fn enter(&mut self, label: impl Into<String>) {
        if self.trace_enabled {
            self.trace.push(TraceEvent::Enter(label.into()));
            self.open_scopes += 1;
        }
    }

    /// Exits the innermost trace scope.
    ///
    /// # Panics
    ///
    /// Panics if tracing is enabled and no scope is open.
    pub fn exit(&mut self) {
        if self.trace_enabled {
            assert!(self.open_scopes > 0, "ExecCtx::exit with no open scope");
            self.trace.push(TraceEvent::Exit);
            self.open_scopes -= 1;
        }
    }

    /// Records a point event in the current scope.
    pub fn event(&mut self, label: impl Into<String>) {
        if self.trace_enabled {
            self.trace.push(TraceEvent::Point(label.into()));
        }
    }

    /// Builds the tree view of the trace. Unclosed scopes are treated as
    /// closed at the end.
    pub fn trace_tree(&self) -> TraceNode {
        let mut root = TraceNode::default();
        let mut stack: Vec<TraceNode> = Vec::new();
        for ev in &self.trace {
            match ev {
                TraceEvent::Enter(label) => stack.push(TraceNode {
                    label: label.clone(),
                    ..TraceNode::default()
                }),
                TraceEvent::Exit => {
                    let done = stack.pop().expect("trace exit without enter");
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => root.children.push(done),
                    }
                }
                TraceEvent::Point(label) => match stack.last_mut() {
                    Some(scope) => scope.points.push(label.clone()),
                    None => root.points.push(label.clone()),
                },
            }
        }
        while let Some(done) = stack.pop() {
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => root.children.push(done),
            }
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Value;

    fn schema() -> Schema {
        let mut s = Schema::new("demo");
        s.add_choice_site("solver", 3);
        s.add_accuracy_variable("iters", 1, 100);
        s.add_cutoff("cutoff", 1, 1000);
        s.add_switch("layout", 2);
        s.add_float_param("omega", 0.0, 2.0);
        s
    }

    #[test]
    fn reads_resolve_against_config() {
        let s = schema();
        let mut c = s.default_config();
        c.set_by_name(&s, "iters", Value::Int(7)).unwrap();
        c.set_by_name(&s, "omega", Value::Float(1.5)).unwrap();
        let mut ctx = ExecCtx::new(&s, &c, 10, 0);
        assert_eq!(ctx.choice("solver").unwrap(), 0);
        assert_eq!(ctx.param("iters").unwrap(), 7);
        assert_eq!(ctx.for_enough("iters").unwrap(), 7);
        assert_eq!(ctx.float_param("omega").unwrap(), 1.5);
        assert_eq!(ctx.switch("layout").unwrap(), 0);
    }

    #[test]
    fn choice_depends_on_current_size() {
        let s = schema();
        let mut c = s.default_config();
        let mut tree = pb_config::DecisionTree::single(2);
        tree.add_level(100, 1);
        c.set_by_name(&s, "solver", Value::Tree(tree)).unwrap();
        let mut ctx = ExecCtx::new(&s, &c, 500, 0);
        assert_eq!(ctx.choice("solver").unwrap(), 2);
        let inner = ctx.with_size(50, |ctx| ctx.choice("solver").unwrap());
        assert_eq!(inner, 1);
        // Size restored after the recursive call.
        assert_eq!(ctx.size(), 500);
        assert_eq!(ctx.choice("solver").unwrap(), 2);
    }

    #[test]
    fn virtual_cost_accumulates() {
        let s = schema();
        let c = s.default_config();
        let mut ctx = ExecCtx::new(&s, &c, 10, 0);
        ctx.charge(2.5);
        ctx.charge(1.5);
        assert_eq!(ctx.virtual_cost(), 4.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let s = schema();
        let c = s.default_config();
        let mut a = ExecCtx::new(&s, &c, 10, 99);
        let mut b = ExecCtx::new(&s, &c, 10, 99);
        let xa: f64 = a.rng().gen();
        let xb: f64 = b.rng().gen();
        assert_eq!(xa, xb);
        let mut c2 = ExecCtx::new(&s, &c, 10, 100);
        let xc: f64 = c2.rng().gen();
        assert_ne!(xa, xc);
    }

    #[test]
    fn trace_disabled_records_nothing() {
        let s = schema();
        let c = s.default_config();
        let mut ctx = ExecCtx::new(&s, &c, 10, 0);
        ctx.enter("level0");
        ctx.event("relax");
        ctx.exit();
        assert_eq!(ctx.trace_tree(), TraceNode::default());
    }

    #[test]
    fn trace_tree_reconstructs_nesting() {
        let s = schema();
        let c = s.default_config();
        let mut ctx = ExecCtx::new(&s, &c, 10, 0);
        ctx.enable_trace();
        ctx.enter("level0");
        ctx.event("relax");
        ctx.enter("level1");
        ctx.event("relax");
        ctx.event("direct");
        ctx.exit();
        ctx.event("relax");
        ctx.exit();
        let tree = ctx.trace_tree();
        assert_eq!(tree.children.len(), 1);
        let l0 = &tree.children[0];
        assert_eq!(l0.label, "level0");
        assert_eq!(l0.points, vec!["relax", "relax"]);
        assert_eq!(l0.children[0].label, "level1");
        assert_eq!(l0.children[0].points, vec!["relax", "direct"]);
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.count_points("relax"), 3);
    }

    #[test]
    fn unclosed_scopes_are_closed_at_end() {
        let s = schema();
        let c = s.default_config();
        let mut ctx = ExecCtx::new(&s, &c, 10, 0);
        ctx.enable_trace();
        ctx.enter("a");
        ctx.enter("b");
        ctx.event("p");
        let tree = ctx.trace_tree();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].label, "a");
        assert_eq!(tree.children[0].children[0].label, "b");
    }
}

//! Adapter exposing a DSL transform as a tunable
//! [`pb_runtime::Transform`].
//!
//! This closes the loop of the paper's toolchain: a program written in
//! the language is compiled (parsed, checked, schema-extracted) and
//! handed to the *same* genetic autotuner the native benchmarks use.
//! The embedder supplies an input generator (the paper's training-data
//! generators were external programs too).

use crate::ast::Program;
use crate::interp::{HostFn, Interpreter, RuntimeError, Value};
use crate::opt::OptLevel;
use crate::sema::check_program;
use crate::traininfo::extract_schema;
use pb_config::{AccuracyBins, Config, Schema};
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::fmt;

/// Generates a named-input map for a training size.
pub type InputGenerator = Box<dyn Fn(u64, &mut SmallRng) -> HashMap<String, Value> + Send + Sync>;

/// Errors constructing a [`DslTransform`].
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// Semantic checking failed.
    Sema(Vec<String>),
    /// The named transform does not exist.
    UnknownTransform(String),
    /// The transform declares no `accuracy_metric`.
    NoAccuracyMetric(String),
    /// The program is past a capacity limit of the bytecode (the only
    /// way a checked program fails to lower).
    Compile(String),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Sema(errors) => write!(f, "semantic errors: {}", errors.join("; ")),
            DslError::UnknownTransform(name) => write!(f, "unknown transform `{name}`"),
            DslError::NoAccuracyMetric(name) => {
                write!(f, "transform `{name}` declares no accuracy_metric")
            }
            DslError::Compile(reason) => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for DslError {}

/// A compiled, tunable DSL transform.
pub struct DslTransform {
    interpreter: Interpreter,
    name: String,
    metric: String,
    metric_schema: Schema,
    /// The metric's configuration: its schema's defaults, built once.
    metric_config: Config,
    input_gen: InputGenerator,
}

impl fmt::Debug for DslTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DslTransform")
            .field("name", &self.name)
            .field("metric", &self.metric)
            .finish()
    }
}

impl DslTransform {
    /// Compiles `transform_name` out of a parsed program.
    ///
    /// # Errors
    ///
    /// See [`DslError`].
    pub fn compile(
        program: Program,
        transform_name: &str,
        input_gen: InputGenerator,
    ) -> Result<Self, DslError> {
        check_program(&program)
            .map_err(|es| DslError::Sema(es.into_iter().map(|e| e.message).collect()))?;
        let t = program
            .transform(transform_name)
            .ok_or_else(|| DslError::UnknownTransform(transform_name.to_owned()))?;
        let metric = t
            .accuracy_metric
            .clone()
            .ok_or_else(|| DslError::NoAccuracyMetric(transform_name.to_owned()))?;
        let metric_schema = extract_schema(&program, &metric);
        // Lower every rule to bytecode once, here at construction: the
        // tuner re-executes candidates thousands of times per
        // generation, so all of them (and the metric transform) run on
        // the register VM, through the optimizer pipeline.
        let interpreter = Interpreter::compiled_checked(program, OptLevel::default());
        if let Some(e) = interpreter.compiled().and_then(|c| c.error()) {
            return Err(DslError::Compile(e.to_string()));
        }
        Ok(DslTransform {
            interpreter,
            name: transform_name.to_owned(),
            metric,
            metric_config: metric_schema.default_config(),
            metric_schema,
            input_gen,
        })
    }

    /// Registers a host function for the transform bodies.
    pub fn register_host_fn(&mut self, name: impl Into<String>, f: HostFn) {
        self.interpreter.register_host_fn(name, f);
    }

    /// The underlying interpreter (for direct runs).
    pub fn interpreter(&self) -> &Interpreter {
        &self.interpreter
    }

    /// The bins the transform's `accuracy_bins` header declares, for
    /// the tuner; `None` when it declares none.
    pub fn accuracy_bins(&self) -> Option<AccuracyBins> {
        let t = self
            .interpreter
            .program()
            .transform(&self.name)
            .expect("transform existence checked at compile time");
        (!t.accuracy_bins.is_empty()).then(|| AccuracyBins::new(t.accuracy_bins.clone()))
    }

    /// Runs the accuracy-metric transform on an input/output pair.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors (e.g. the metric reads data the
    /// main transform does not provide).
    pub fn run_metric(
        &self,
        inputs: &HashMap<String, Value>,
        outputs: &HashMap<String, Value>,
    ) -> Result<f64, RuntimeError> {
        let metric_t = self
            .interpreter
            .program()
            .transform(&self.metric)
            .expect("metric existence checked at compile time");
        // Borrowed inputs: the interpreter clones what it keeps, so
        // the metric run costs no extra copies of the (possibly large)
        // transform outputs.
        let mut metric_inputs: HashMap<String, &Value> = HashMap::new();
        for p in &metric_t.inputs {
            let v = outputs
                .get(&p.name)
                .or_else(|| inputs.get(&p.name))
                .ok_or(RuntimeError {
                    message: format!(
                        "accuracy metric needs `{}`, which the transform does not provide",
                        p.name
                    ),
                    span: Some(p.span),
                })?;
            metric_inputs.insert(p.name.clone(), v);
        }
        let mut ctx = ExecCtx::new(&self.metric_schema, &self.metric_config, 1, 0);
        let result =
            self.interpreter
                .run_prefixed(&self.metric, &metric_inputs, &mut ctx, "", 0)?;
        let out_name = &metric_t.outputs[0].name;
        result
            .get(out_name)
            .and_then(Value::as_num)
            .ok_or(RuntimeError {
                message: format!("accuracy metric produced no scalar `{out_name}`"),
                span: None,
            })
    }
}

impl Transform for DslTransform {
    type Input = HashMap<String, Value>;
    type Output = HashMap<String, Value>;

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Schema {
        extract_schema(self.interpreter.program(), &self.name)
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Self::Input {
        (self.input_gen)(n, rng)
    }

    fn execute(&self, input: &Self::Input, ctx: &mut ExecCtx<'_>) -> Self::Output {
        match self.interpreter.run(&self.name, input, ctx) {
            Ok(outputs) => outputs,
            Err(e) => panic!("DSL transform `{}` failed: {e}", self.name),
        }
    }

    fn accuracy(&self, input: &Self::Input, output: &Self::Output) -> f64 {
        self.run_metric(input, output).unwrap_or(f64::NEG_INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pb_runtime::{CostModel, TransformRunner, TrialRunner};
    /// An iterative-refinement DSL program: each for_enough iteration
    /// halves the error; accuracy = iterations performed.
    const REFINE: &str = r#"
        transform refine
        accuracy_metric refineacc
        from In[n]
        to Out[n], Steps
        {
            to (Out o, Steps s) from (In a) {
                for_enough {
                    s = s + 1;
                }
                for (i in 0 .. len(a)) { o[i] = a[i]; }
            }
        }

        transform refineacc
        from Steps, In[n]
        to Accuracy
        {
            to (Accuracy acc) from (Steps s, In a) {
                acc = 1 - 1 / (1 + s);
            }
        }
    "#;

    fn compile_refine() -> DslTransform {
        let program = parse_program(REFINE).unwrap();
        DslTransform::compile(
            program,
            "refine",
            Box::new(|n, _rng| {
                let mut m = HashMap::new();
                m.insert("In".to_string(), Value::Arr1(vec![1.0; n.max(1) as usize]));
                m
            }),
        )
        .unwrap()
    }

    #[test]
    fn compiles_and_runs_through_the_runner() {
        let dsl = compile_refine();
        let runner = TransformRunner::new(dsl, CostModel::Virtual);
        let mut config = runner.schema().default_config();
        config
            .set_by_name(runner.schema(), "for_enough_0", pb_config::Value::Int(9))
            .unwrap();
        let outcome = runner.run_trial(&config, 4, 1);
        // accuracy = 1 - 1/(1+9) = 0.9.
        assert!((outcome.accuracy - 0.9).abs() < 1e-12);
        assert!(outcome.virtual_cost > 0.0);
    }

    #[test]
    fn metric_errors_surface_as_neg_infinity() {
        let program = parse_program(
            r#"
            transform t
            accuracy_metric m
            from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = 1; }
            }
            transform m from Missing[n] to Accuracy {
                to (Accuracy acc) from (Missing x) { acc = 1; }
            }
        "#,
        )
        .unwrap();
        let dsl = DslTransform::compile(
            program,
            "t",
            Box::new(|_n, _| {
                let mut m = HashMap::new();
                m.insert("In".to_string(), Value::Arr1(vec![0.0]));
                m
            }),
        )
        .unwrap();
        let input = (dsl.input_gen)(1, &mut {
            use rand::SeedableRng;
            SmallRng::seed_from_u64(0)
        });
        let schema = Transform::schema(&dsl);
        let config = schema.default_config();
        let mut ctx = ExecCtx::new(&schema, &config, 1, 0);
        let output = dsl.execute(&input, &mut ctx);
        assert_eq!(dsl.accuracy(&input, &output), f64::NEG_INFINITY);
    }

    #[test]
    fn missing_metric_is_a_compile_error() {
        let program = parse_program(
            r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = 1; }
            }
        "#,
        )
        .unwrap();
        let err = DslTransform::compile(program, "t", Box::new(|_, _| HashMap::new())).unwrap_err();
        assert!(matches!(err, DslError::NoAccuracyMetric(_)));
    }

    /// Runs `t` of `src` on a compiled interpreter and returns the error.
    fn compiled_run_error(src: &str) -> String {
        let program = parse_program(src).unwrap();
        let schema = extract_schema(&program, "t");
        let config = schema.default_config();
        let mut ctx = ExecCtx::new(&schema, &config, 1, 0);
        let inputs: HashMap<String, Value> = [("In".to_string(), Value::Arr1(vec![1.0]))].into();
        let err = Interpreter::new_compiled(program).run("t", &inputs, &mut ctx);
        err.unwrap_err().message
    }

    #[test]
    fn a_program_past_a_capacity_limit_is_a_compile_error_not_a_tree_walk() {
        // Every argument of a call holds its register until the call is
        // emitted: 70 000 literals outgrow the bank. Nothing else an
        // accepted program can do fails to lower, and then the whole
        // program has no bytecode — the rule that would have compiled
        // included.
        let src = format!(
            "transform t accuracy_metric m from In[n] to Out[n] {{
                to (Out o) from (In a) {{ o[0] = 1; }}
                to (Out o) from (In a) {{ Fill(o, {}0); }}
            }}
            transform m from Out[n] to Accuracy {{
                to (Accuracy acc) from (Out o) {{ acc = 1; }}
            }}",
            "0, ".repeat(70_000)
        );
        let program = parse_program(&src).unwrap();
        let compiled = crate::compile::compile_program(&program);
        assert_eq!(compiled.coverage(), (0, 3));
        assert!(compiled.chunk("t", 0).is_none());
        let reason = compiled.error().unwrap().to_string();
        assert!(
            reason.contains("`t::r1`: register bank exhausted"),
            "{reason}"
        );

        let err = DslTransform::compile(program, "t", Box::new(|_, _| HashMap::new()));
        assert_eq!(err.unwrap_err(), DslError::Compile(reason.clone()));
        assert_eq!(compiled_run_error(&src), reason);
    }

    #[test]
    fn a_compiled_interpreter_refuses_a_program_sema_rejects() {
        // `x` is a local on one path and a tunable on the other: there
        // is no bytecode for that, and no second engine to fall back on.
        let src = "transform t from In[n] to Out[n] {
            to (Out o) from (In a) { if (a[0]) { let x = 1; } o[0] = x; }
        }";
        let message = compiled_run_error(src);
        assert!(message.contains("only some of the paths"), "{message}");
    }

    #[test]
    fn unknown_transform_is_a_compile_error() {
        let program = parse_program(
            r#"
            transform t from In[n] to Out[n] {
                to (Out o) from (In a) { o[0] = 1; }
            }
        "#,
        )
        .unwrap();
        let err =
            DslTransform::compile(program, "ghost", Box::new(|_, _| HashMap::new())).unwrap_err();
        assert!(matches!(err, DslError::UnknownTransform(_)));
    }

    #[test]
    fn bins_type_is_reachable() {
        // Smoke: bins helper composes with the runtime types.
        let bins = AccuracyBins::new(vec![0.5, 0.9]);
        assert_eq!(bins.len(), 2);
    }
}

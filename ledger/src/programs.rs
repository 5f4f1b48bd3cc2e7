//! The programs the ledger tunes and serves, behind one object-safe
//! facade: the six native §6.1 benchmarks, the synthetic `planted`
//! transform and the five DSL programs.

use crate::dsl::{DslProgram, PROGRAMS as DSL_PROGRAMS};
use crate::planted::Planted;
use pb_benchmarks::{
    BinPacking, Clustering, Helmholtz3d, ImageCompression, Poisson2d, Preconditioner,
};
use pb_runtime::guarantee::run_verified;
use pb_runtime::{
    CostModel, GuaranteeError, Transform, TransformRunner, TrialRunner, TunedProgram,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A native §6.1 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Native {
    BinPacking,
    Clustering,
    Helmholtz,
    ImageCompr,
    Poisson,
    Precond,
}

impl Native {
    /// Row name in reports and suffix of its `kernels.trial_us` metric.
    pub fn name(self) -> &'static str {
        match self {
            Native::BinPacking => "binpacking",
            Native::Clustering => "clustering",
            Native::Helmholtz => "helmholtz",
            Native::ImageCompr => "imagecompr",
            Native::Poisson => "poisson",
            Native::Precond => "precond",
        }
    }
}

/// One program of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProgramId {
    Native(Native),
    /// The synthetic transform; the payload seeds its optimum.
    Planted(u64),
    /// Index into [`crate::dsl::PROGRAMS`].
    Dsl(usize),
}

impl ProgramId {
    /// Row name in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProgramId::Native(n) => n.name(),
            ProgramId::Planted(_) => "planted",
            ProgramId::Dsl(i) => DSL_PROGRAMS[i].name,
        }
    }

    /// The DSL corpus entry, for DSL programs.
    pub fn dsl(self) -> Option<&'static DslProgram> {
        match self {
            ProgramId::Dsl(i) => Some(&DSL_PROGRAMS[i]),
            _ => None,
        }
    }

    /// Constructs the program's trial runner under the virtual cost
    /// model. A DSL program is read and compiled from its source file
    /// here, every time.
    ///
    /// # Errors
    ///
    /// A DSL source that cannot be read or compiled.
    pub fn build(self) -> Result<Box<dyn Served>, String> {
        fn boxed<T>(transform: T) -> Result<Box<dyn Served>, String>
        where
            T: Transform + Send + Sync + 'static,
        {
            Ok(Box::new(TransformRunner::new(
                transform,
                CostModel::Virtual,
            )))
        }
        match self {
            ProgramId::Native(Native::BinPacking) => boxed(BinPacking),
            ProgramId::Native(Native::Clustering) => boxed(Clustering),
            ProgramId::Native(Native::Helmholtz) => boxed(Helmholtz3d),
            ProgramId::Native(Native::ImageCompr) => boxed(ImageCompression),
            ProgramId::Native(Native::Poisson) => boxed(Poisson2d),
            ProgramId::Native(Native::Precond) => boxed(Preconditioner),
            ProgramId::Planted(seed) => boxed(Planted::new(seed)),
            ProgramId::Dsl(i) => {
                let program = &DSL_PROGRAMS[i];
                let source = program
                    .read_source()
                    .map_err(|e| format!("cannot read {}: {e}", program.source_path().display()))?;
                boxed(program.compile(&source)?)
            }
        }
    }
}

/// One served request's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// Wall time of `run_verified` alone (the client builds the input
    /// before it issues the request).
    pub wall: Duration,
    /// The accuracy the run-time check measured.
    pub accuracy: f64,
    /// Executions it took (1 = the first bin tried was enough).
    pub attempts: usize,
    /// The bin whose configuration produced the response.
    pub bin_used: usize,
}

/// A trial runner that can also serve verified requests from a tuned
/// program — what [`TransformRunner`] offers, without its type
/// parameter.
pub trait Served: TrialRunner {
    /// Generates an input of size `n` from `input_seed` and answers one
    /// request for accuracy `required` through
    /// [`pb_runtime::guarantee::run_verified`].
    ///
    /// # Errors
    ///
    /// See [`GuaranteeError`].
    fn serve(
        &self,
        tuned: &TunedProgram,
        n: u64,
        required: f64,
        input_seed: u64,
    ) -> Result<Response, GuaranteeError>;
}

/// Escalation retries granted to a served request beyond one try per
/// bin.
const SERVE_RETRIES: usize = 2;

impl<T> Served for TransformRunner<T>
where
    T: Transform + Send + Sync,
{
    fn serve(
        &self,
        tuned: &TunedProgram,
        n: u64,
        required: f64,
        input_seed: u64,
    ) -> Result<Response, GuaranteeError> {
        let mut rng = SmallRng::seed_from_u64(input_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let input = self.transform().generate_input(n, &mut rng);
        let start = Instant::now();
        let run = run_verified(self, tuned, &input, n, required, SERVE_RETRIES, input_seed)?;
        let wall = start.elapsed();
        std::hint::black_box(&run.output);
        Ok(Response {
            wall,
            accuracy: run.accuracy,
            attempts: run.attempts,
            bin_used: run.bin_used,
        })
    }
}

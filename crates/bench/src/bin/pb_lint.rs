//! `pb_lint` — the DSL linter and chunk-verifier front-end.
//!
//! ```text
//! pb_lint [--deny-warnings] <file-or-dir>...
//! pb_lint --disasm <file> <transform>
//! ```
//!
//! Each argument is a `.pb` source file or a directory walked
//! recursively for `.pb` files. Every file is parsed, sema-checked
//! (a rule body that could not compile — a read of a name bound on
//! only some paths, a wrong arity — is an error here), compiled, and
//! run through [`pb_lang::lint_program`]: rule chunks are verified at
//! `O0` and pass-by-pass through the `O3` pipeline (the whole-program
//! `inline` pass included), tunable references are checked against the
//! transform's schema, and DSL-level lints (dead accuracy variables,
//! range-collapsed tunables, unconsumed rule products, calls to scalar
//! helpers that could not be inlined) are reported as warnings.
//!
//! `--disasm` instead prints every chunk of one transform as the
//! default [`pb_lang::OptLevel`] dispatches it.
//!
//! Exit codes: `0` clean, `1` any error (or any warning under
//! `--deny-warnings`), `2` usage or I/O failure — so CI can gate on it
//! directly.

use pb_lang::{check_program, compile_program, lint_program, parse_program, OptLevel, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            collect_sources(&entry, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "pb") {
        out.push(path.to_path_buf());
    } else if !path.exists() {
        return Err(format!("{}: no such file or directory", path.display()));
    }
    Ok(())
}

fn line_col(source: &str, offset: usize) -> (usize, usize) {
    pb_lang::token::Span::new(offset, offset).line_col(source)
}

const USAGE: &str =
    "usage: pb_lint [--deny-warnings] <file-or-dir>...\n       pb_lint --disasm <file> <transform>";

/// `--disasm`: the optimized chunks of one transform, in rule order.
fn disasm(file: &str, transform: &str) -> ExitCode {
    let compiled = std::fs::read_to_string(file)
        .map_err(|e| e.to_string())
        .and_then(|source| parse_program(&source).map_err(|e| format!("parse failed: {e}")))
        .and_then(|program| match check_program(&program) {
            Ok(()) => Ok(compile_program(&program).optimized(OptLevel::default())),
            Err(errors) => Err(errors[0].to_string()),
        })
        .and_then(|compiled| match compiled.error() {
            Some(e) => Err(e.to_string()),
            None => Ok(compiled),
        });
    let compiled = match compiled {
        Ok(compiled) => compiled,
        Err(e) => {
            eprintln!("pb_lint: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(t) = compiled.transform(transform) else {
        eprintln!("pb_lint: {file}: no transform `{transform}`");
        return ExitCode::from(2);
    };
    for chunk in &t.rules {
        println!("{}", chunk.disassemble());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--disasm") {
        return match &args[1..] {
            [file, transform] => disasm(file, transform),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let mut deny_warnings = false;
    let mut roots = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("pb_lint: unknown flag `{arg}`");
                return ExitCode::from(2);
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut files = Vec::new();
    for root in &roots {
        if let Err(e) = collect_sources(root, &mut files) {
            eprintln!("pb_lint: {e}");
            return ExitCode::from(2);
        }
    }
    if files.is_empty() {
        eprintln!("pb_lint: no .pb files under {roots:?}");
        return ExitCode::from(2);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pb_lint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let path = file.display();
        let program = match parse_program(&source) {
            Ok(p) => p,
            Err(e) => {
                println!("{path}: error: parse failed: {e}");
                errors += 1;
                continue;
            }
        };
        if let Err(es) = check_program(&program) {
            for e in es {
                let (line, col) = line_col(&source, e.span.start);
                println!("{path}:{line}:{col}: error: {}", e.message);
                errors += 1;
            }
            continue;
        }
        for lint in lint_program(&program) {
            let loc = match lint.span {
                Some(span) => {
                    let (line, col) = line_col(&source, span.start);
                    format!("{path}:{line}:{col}")
                }
                None => format!("{path}"),
            };
            println!("{loc}: {}: {}", lint.severity, lint.message);
            match lint.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
    }

    let failed = errors > 0 || (deny_warnings && warnings > 0);
    println!(
        "pb_lint: {} file(s), {errors} error(s), {warnings} warning(s){}",
        files.len(),
        if failed { " — FAILED" } else { "" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

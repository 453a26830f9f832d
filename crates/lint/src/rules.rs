//! The rule engine: five contract rules, inline suppressions, and the
//! unsafe-site collector that feeds the committed registry.
//!
//! Every rule operates on the lexed token stream (see [`crate::lexer`])
//! so nothing ever fires inside a string, char literal, or comment.
//! Scoping is by path: each rule documents exactly which files it
//! watches and which it deliberately ignores (bench code, tests,
//! examples are allowed clocks; the one knob-resolution module is
//! allowed env reads; and so on).
//!
//! # Suppressions
//!
//! A finding on line `L` is suppressed by a *plain* (non-doc, non-
//! block) comment of the form
//!
//! ```text
//! code(); // lint:allow(W-RULE): a real reason
//! ```
//!
//! either trailing on `L` itself or alone on the line(s) immediately
//! above the first code line it governs. The reason is mandatory: a
//! bare suppression, an empty reason, or an unknown rule id is itself
//! reported (rule id `W-ALLOW`) and the suppression stays inert.
//! Registry mismatches (unregistered/stale unsafe sites) are not
//! suppressible — that is the point of the registry.

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::registry::{self, Entry};

/// The five contract rules, in report order.
pub const RULES: [&str; 5] = ["W-UNSAFE", "W-CLOCK", "W-ENV", "W-DETERMINISM", "W-CAST"];

/// Pseudo-rule id for malformed suppressions.
pub const RULE_ALLOW: &str = "W-ALLOW";

/// One source file handed to the engine: a workspace-relative path
/// (forward slashes) and its contents.
pub struct SourceFile {
    pub path: String,
    pub src: String,
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl Finding {
    fn new(rule: &str, file: &str, line: usize, message: String) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// An `unsafe` site discovered by W-UNSAFE, in registry terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsafeSite {
    pub line: usize,
    pub entry: Entry,
}

/// Everything one engine run produces.
#[derive(Debug, Default)]
pub struct LintOutcome {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub files_scanned: usize,
}

impl LintOutcome {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run the whole engine over `files`, then reconcile unsafe sites
/// against `registry_text` (the contents of `UNSAFE_REGISTRY.txt`;
/// `None` means the file is absent, which is only clean if the tree
/// has no unsafe at all).
pub fn lint_files(files: &[SourceFile], registry_text: Option<&str>) -> LintOutcome {
    let mut out = LintOutcome {
        files_scanned: files.len(),
        ..Default::default()
    };
    for f in files {
        lint_one(f, &mut out);
    }
    registry::reconcile(&out.unsafe_sites, registry_text, &mut out.findings);
    out.findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Per-file pass
// ---------------------------------------------------------------------------

fn lint_one(f: &SourceFile, out: &mut LintOutcome) {
    let lexed = lex(&f.src);
    let (suppressions, mut allow_findings) = collect_suppressions(f, &lexed);
    out.findings.append(&mut allow_findings);

    let mut raw = Vec::new();
    rule_unsafe(f, &lexed, &mut raw, &mut out.unsafe_sites);
    rule_clock(f, &lexed, &mut raw);
    rule_env(f, &lexed, &mut raw);
    rule_determinism(f, &lexed, &mut raw);
    rule_cast(f, &lexed, &mut raw);

    for finding in raw {
        let key = (finding.rule.clone(), finding.line);
        if !suppressions.contains(&key) {
            out.findings.push(finding);
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Parse every `lint:allow` comment. Returns the set of
/// `(rule, line)` pairs that are validly suppressed, plus `W-ALLOW`
/// findings for malformed ones.
fn collect_suppressions(f: &SourceFile, lexed: &LexedFile) -> (Vec<(String, usize)>, Vec<Finding>) {
    let mut suppressed = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        // Only plain `//` comments qualify: strip the slashes, then
        // whitespace. Doc comments leave a `!` or are prose that does
        // not *start* with the marker, so documentation that merely
        // mentions the syntax never becomes a suppression.
        let body = c.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                "malformed suppression: missing `)`".to_string(),
            ));
            continue;
        };
        let rule = rest[..close].trim();
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if !RULES.contains(&rule) {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                format!("suppression names unknown rule `{rule}`; suppression ignored"),
            ));
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding::new(
                RULE_ALLOW,
                &f.path,
                c.first_line,
                format!(
                    "bare suppression of {rule}: a `lint:allow` must carry \
                     `: <reason>`; suppression ignored"
                ),
            ));
            continue;
        }
        // Trailing on a code line governs that line; a standalone
        // comment governs the next line that has code.
        let target = if lexed.line_has_code(c.first_line) {
            Some(c.first_line)
        } else {
            lexed
                .tokens
                .iter()
                .find(|t| t.line > c.last_line)
                .map(|t| t.line)
        };
        if let Some(line) = target {
            suppressed.push((rule.to_string(), line));
        }
    }
    (suppressed, findings)
}

// ---------------------------------------------------------------------------
// Path scoping helpers
// ---------------------------------------------------------------------------

fn has_component(path: &str, name: &str) -> bool {
    path.split('/').any(|c| c == name)
}

/// Test/example/bench *directories* are exempt from the runtime-contract
/// rules (W-CLOCK, W-ENV): measurement and demo code may read clocks and
/// set knobs freely.
fn is_test_or_example(path: &str) -> bool {
    has_component(path, "tests")
        || has_component(path, "examples")
        || has_component(path, "benches")
}

// ---------------------------------------------------------------------------
// W-UNSAFE — every unsafe fn/block/impl/trait carries a SAFETY comment
// and matches the committed registry.
// ---------------------------------------------------------------------------

fn rule_unsafe(
    f: &SourceFile,
    lexed: &LexedFile,
    raw: &mut Vec<Finding>,
    sites: &mut Vec<UnsafeSite>,
) {
    let toks = &lexed.tokens;
    let ctx = fn_contexts(toks);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let next = toks.get(i + 1);
        let (kind, context) = match next {
            Some(n) if n.kind == TokenKind::Ident && n.text == "fn" => {
                let name = toks
                    .get(i + 2)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_else(|| ctx[i].clone());
                ("fn", name)
            }
            Some(n) if n.kind == TokenKind::Ident && (n.text == "impl" || n.text == "trait") => {
                let kind = if n.text == "impl" { "impl" } else { "trait" };
                (kind, impl_context(toks, i))
            }
            // `#[unsafe(...)]` attributes (Rust 2024) are not sites.
            Some(n) if n.kind == TokenKind::Punct && n.text == "(" => continue,
            _ => ("block", ctx[i].clone()),
        };
        if !has_safety_doc(lexed, t.line) {
            raw.push(Finding::new(
                "W-UNSAFE",
                &f.path,
                t.line,
                format!(
                    "unsafe {kind} in `{context}` has no `// SAFETY:` comment \
                     (contiguous block above, or trailing on the same line)"
                ),
            ));
        }
        sites.push(UnsafeSite {
            line: t.line,
            entry: Entry {
                file: f.path.clone(),
                kind: kind.to_string(),
                context,
            },
        });
    }
}

/// For an `unsafe impl … for Target {`, the registry context is the
/// implementing type: the first ident after `for` (falling back to the
/// last ident before the opening brace for inherent impls).
fn impl_context(toks: &[Token], start: usize) -> String {
    let mut last_ident = None;
    let mut after_for = false;
    for t in toks.iter().skip(start + 1) {
        match t.kind {
            TokenKind::Punct if t.text == "{" => break,
            TokenKind::Ident if t.text == "for" => after_for = true,
            TokenKind::Ident => {
                last_ident = Some(t.text.clone());
                if after_for {
                    return t.text.clone();
                }
            }
            _ => {}
        }
    }
    last_ident.unwrap_or_else(|| "<impl>".to_string())
}

/// `true` if line `line` carries a SAFETY justification: a comment on
/// the line itself, or a contiguous comment block immediately above
/// (attribute lines may sit between), any line of which contains
/// `SAFETY` or the rustdoc `# Safety` section heading.
fn has_safety_doc(lexed: &LexedFile, line: usize) -> bool {
    let is_safety = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if lexed.comments_on_line(line).any(|c| is_safety(&c.text)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if let Some(c) = lexed.comments_on_line(l).next() {
            if is_safety(&c.text) {
                return true;
            }
            l = c.first_line;
            continue;
        }
        if lexed.line_has_code(l) {
            if lexed.line_starts_attribute(l) {
                continue;
            }
            return false;
        }
        // Blank line: the justification must be contiguous.
        return false;
    }
    false
}

/// For every token index, the name of the enclosing `fn` (or
/// `<module>` at top level). Closures do not open a new context, so
/// unsafe blocks inside parallel closures attribute to the function
/// that owns them — which is what the registry wants to show.
fn fn_contexts(toks: &[Token]) -> Vec<String> {
    let mut out = Vec::with_capacity(toks.len());
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    let mut pending: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        out.push(
            stack
                .last()
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| "<module>".to_string()),
        );
        match t.kind {
            TokenKind::Ident if t.text == "fn" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    pending = Some(name.text.clone());
                }
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => paren_depth += 1,
                ")" | "]" => paren_depth = paren_depth.saturating_sub(1),
                "{" => {
                    brace_depth += 1;
                    if let Some(name) = pending.take() {
                        stack.push((name, brace_depth));
                    }
                }
                "}" => {
                    if stack.last().is_some_and(|&(_, d)| d == brace_depth) {
                        stack.pop();
                    }
                    brace_depth = brace_depth.saturating_sub(1);
                }
                // A `;` at type/signature level cancels a bodyless
                // trait-method declaration (but `[u8; 4]` inside
                // brackets does not).
                ";" if paren_depth == 0 => pending = None,
                _ => {}
            },
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// W-CLOCK — Instant::now only in bench code, the obs clock gate, tests,
// examples, or behind a reasoned suppression at an instrument gate.
// ---------------------------------------------------------------------------

fn rule_clock(f: &SourceFile, lexed: &LexedFile, raw: &mut Vec<Finding>) {
    // obs::clock is the registered runtime gate: every compute-path
    // clock read funnels through its now_if/nanos_since, which count
    // reads so tests can pin "uninstrumented => zero reads". Only
    // clock.rs is sanctioned — the rest of crates/obs must route
    // through it like everyone else.
    if f.path.starts_with("crates/bench/")
        || f.path == "crates/obs/src/clock.rs"
        || is_test_or_example(&f.path)
    {
        return;
    }
    for i in seq_matches(&lexed.tokens, &["Instant", ":", ":", "now"]) {
        raw.push(Finding::new(
            "W-CLOCK",
            &f.path,
            lexed.tokens[i].line,
            "Instant::now() on a compute path: clock reads must live in \
             crates/bench, obs::clock, or behind an instrument gate \
             (now_if) carrying a reasoned lint:allow"
                .to_string(),
        ));
    }
}

// ---------------------------------------------------------------------------
// W-ENV — GALACTOS_* knob resolution happens in exactly one module.
// ---------------------------------------------------------------------------

const ENV_ALLOWED: [&str; 1] = ["crates/core/src/estimator.rs"];

fn rule_env(f: &SourceFile, lexed: &LexedFile, raw: &mut Vec<Finding>) {
    if ENV_ALLOWED.contains(&f.path.as_str()) || is_test_or_example(&f.path) {
        return;
    }
    for reader in ["var", "var_os", "vars", "vars_os"] {
        for i in seq_matches(&lexed.tokens, &["env", ":", ":", reader]) {
            raw.push(Finding::new(
                "W-ENV",
                &f.path,
                lexed.tokens[i].line,
                format!(
                    "env::{reader} outside the designated knob-resolution \
                     module ({})",
                    ENV_ALLOWED.join(", ")
                ),
            ));
        }
    }
    for t in &lexed.tokens {
        // lint:allow(W-ENV): the rule implementation must name its own needle.
        if t.kind == TokenKind::Str && t.text.starts_with("GALACTOS_") {
            raw.push(Finding::new(
                "W-ENV",
                &f.path,
                t.line,
                format!(
                    "`{}` knob name referenced outside the designated \
                     knob-resolution module",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// W-DETERMINISM — parallel float reductions must use the ordered
// two-arg fold/reduce helpers, never the raw unordered terminals.
// ---------------------------------------------------------------------------

const PAR_SOURCES: [&str; 8] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_chunks_exact",
    "par_bridge",
    "par_windows",
];

const RAW_TERMINALS: [&str; 3] = ["sum", "product", "reduce_with"];

fn rule_determinism(f: &SourceFile, lexed: &LexedFile, raw: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !PAR_SOURCES.contains(&t.text.as_str()) {
            continue;
        }
        // Forward span: the rest of the statement, with the chain
        // itself at depth 0 (closure bodies sit at depth >= 1).
        let mut depth = 0i32;
        let mut end = toks.len();
        let mut terminal: Option<usize> = None;
        for (j, u) in toks.iter().enumerate().skip(i + 1) {
            if u.kind == TokenKind::Punct {
                match u.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            end = j;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end = j;
                        break;
                    }
                    _ => {}
                }
                continue;
            }
            if depth == 0
                && u.kind == TokenKind::Ident
                && RAW_TERMINALS.contains(&u.text.as_str())
                && j > 0
                && toks[j - 1].kind == TokenKind::Punct
                && toks[j - 1].text == "."
                && toks
                    .get(j + 1)
                    .is_some_and(|v| v.kind == TokenKind::Punct && (v.text == "(" || v.text == ":"))
                && terminal.is_none()
            {
                terminal = Some(j);
            }
        }
        let Some(term) = terminal else { continue };
        // Float evidence anywhere in the statement (back to the
        // previous statement boundary, forward to the span end).
        let start = toks[..i]
            .iter()
            .rposition(|u| u.kind == TokenKind::Punct && matches!(u.text.as_str(), ";" | "{" | "}"))
            .map_or(0, |p| p + 1);
        let float_evidence = toks[start..end].iter().any(|u| match u.kind {
            TokenKind::Ident => u.text == "f64" || u.text == "f32",
            TokenKind::Num { float } => float,
            _ => false,
        });
        if float_evidence {
            raw.push(Finding::new(
                "W-DETERMINISM",
                &f.path,
                toks[term].line,
                format!(
                    "raw parallel float reduction `.{}()` after `.{}()`: use \
                     the two-arg `.fold(zero, f).reduce(zero, merge)` form — \
                     the vendored pool merges those in task order, so results \
                     are bit-stable across thread counts",
                    toks[term].text, t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// W-CAST — no bare `as` narrowing in the catalog header-parsing files.
// ---------------------------------------------------------------------------

const CAST_SCOPED: [&str; 2] = ["crates/catalog/src/io.rs", "crates/catalog/src/shard.rs"];

const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

fn rule_cast(f: &SourceFile, lexed: &LexedFile, raw: &mut Vec<Finding>) {
    if !CAST_SCOPED.contains(&f.path.as_str()) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind == TokenKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
            raw.push(Finding::new(
                "W-CAST",
                &f.path,
                t.line,
                format!(
                    "bare `as {}` narrowing in catalog parsing: use \
                     `{}::try_from(..)` (untrusted header bytes must fail \
                     loudly, not wrap)",
                    target.text, target.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Token-sequence matching
// ---------------------------------------------------------------------------

/// Indices where the idents/puncts of `pat` occur consecutively.
fn seq_matches(toks: &[Token], pat: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    if toks.len() < pat.len() {
        return out;
    }
    'outer: for i in 0..=toks.len() - pat.len() {
        for (k, want) in pat.iter().enumerate() {
            let t = &toks[i + k];
            let ok = match t.kind {
                TokenKind::Ident | TokenKind::Punct => t.text == *want,
                _ => false,
            };
            if !ok {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> LintOutcome {
        lint_files(
            &[SourceFile {
                path: path.to_string(),
                src: src.to_string(),
            }],
            Some(""),
        )
    }

    fn rules_of(out: &LintOutcome) -> Vec<&str> {
        out.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    // ----- W-CLOCK -----

    #[test]
    fn clock_fires_on_compute_path() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(rules_of(&out), ["W-CLOCK"]);
        assert_eq!(out.findings[0].line, 1);
    }

    #[test]
    fn clock_allowed_in_bench_timing_tests_examples() {
        for path in [
            "crates/bench/src/main.rs",
            "crates/obs/src/clock.rs",
            "crates/core/tests/perf.rs",
            "examples/quickstart.rs",
        ] {
            let out = run(path, "fn f() { let t = Instant::now(); }");
            assert!(out.is_clean(), "{path} should allow clocks");
        }
    }

    #[test]
    fn clock_in_obs_outside_clock_module_still_fires() {
        let out = run(
            "crates/obs/src/span.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(rules_of(&out), ["W-CLOCK"]);
    }

    #[test]
    fn clock_in_comment_or_string_is_ignored() {
        let out = run(
            "crates/core/src/engine.rs",
            "// Instant::now() is forbidden here\nfn f() { let s = \"Instant::now\"; }",
        );
        assert!(out.is_clean());
    }

    #[test]
    fn clock_suppression_with_reason() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn now_if(i: bool) { // lint:allow(W-CLOCK): gated by instrument flag\n    let t = Instant::now();\n}",
        );
        // Trailing comment governs line 1, but the call is line 2 — use
        // a standalone comment above instead.
        assert_eq!(rules_of(&out), ["W-CLOCK"]);
        let out = run(
            "crates/core/src/engine.rs",
            "fn now_if(i: bool) {\n    // lint:allow(W-CLOCK): gated by instrument flag\n    let t = Instant::now();\n}",
        );
        assert!(out.is_clean());
    }

    #[test]
    fn bare_suppression_is_a_finding_and_inert() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f() {\n    // lint:allow(W-CLOCK)\n    let t = Instant::now();\n}",
        );
        let mut rules = rules_of(&out);
        rules.sort_unstable();
        assert_eq!(rules, ["W-ALLOW", "W-CLOCK"]);
    }

    #[test]
    fn unknown_rule_suppression_is_a_finding() {
        let out = run(
            "crates/core/src/lib.rs",
            "// lint:allow(W-BOGUS): some reason\nfn f() {}",
        );
        assert_eq!(rules_of(&out), ["W-ALLOW"]);
    }

    #[test]
    fn doc_comment_mentioning_syntax_is_not_a_suppression() {
        let out = run(
            "crates/core/src/lib.rs",
            "/// Suppress with `// lint:allow(W-BOGUS): reason` inline.\nfn f() {}",
        );
        assert!(out.is_clean());
    }

    // ----- W-ENV -----

    #[test]
    fn env_fires_outside_designated_modules() {
        let out = run(
            "crates/grid/src/mesh.rs",
            "fn f() { let v = std::env::var(\"GALACTOS_MESH\"); }",
        );
        // Both the read and the knob literal fire.
        assert_eq!(rules_of(&out), ["W-ENV", "W-ENV"]);
    }

    #[test]
    fn env_allowed_in_resolution_modules() {
        for path in ENV_ALLOWED {
            let out = run(path, "fn f() { let v = std::env::var(\"GALACTOS_X\"); }");
            assert!(out.is_clean(), "{path} is a designated resolver");
        }
    }

    #[test]
    fn env_fires_in_kernel_and_traversal_selection() {
        // Backend and traversal selection read no environment; a knob
        // reappearing there must be a reviewed allowlist change.
        for path in [
            "crates/core/src/kernel/backend.rs",
            "crates/core/src/traversal/mod.rs",
        ] {
            let out = run(path, "fn f() { let v = std::env::var(\"GALACTOS_X\"); }");
            assert_eq!(rules_of(&out), ["W-ENV", "W-ENV"], "{path}");
        }
    }

    #[test]
    fn env_allowed_in_tests() {
        let out = run(
            "crates/core/tests/knobs.rs",
            "fn f() { std::env::set_var(\"GALACTOS_KERNEL\", \"simd\"); let v = std::env::var(\"GALACTOS_KERNEL\"); }",
        );
        assert!(out.is_clean());
    }

    // ----- W-DETERMINISM -----

    #[test]
    fn determinism_fires_on_raw_float_sum() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|&x| x * 2.0).sum() }",
        );
        assert_eq!(rules_of(&out), ["W-DETERMINISM"]);
    }

    #[test]
    fn determinism_fires_on_reduce_with_turbofish_sum() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[f64]) -> f64 { let s = xs.par_iter().copied().sum::<f64>(); s }",
        );
        assert_eq!(rules_of(&out), ["W-DETERMINISM"]);
        let out = run(
            "crates/core/src/engine.rs",
            "fn g(xs: &[f64]) { let m = xs.par_iter().copied().reduce_with(f64::max); let _ = m; }",
        );
        assert_eq!(rules_of(&out), ["W-DETERMINISM"]);
    }

    #[test]
    fn determinism_allows_ordered_two_arg_forms() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[f64]) -> f64 { xs.par_iter().fold(|| 0.0f64, |a, &x| a + x).reduce(|| 0.0f64, |a, b| a + b) }",
        );
        assert!(out.is_clean());
    }

    #[test]
    fn determinism_ignores_integer_sums_and_serial_sums() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[u64]) -> u64 { xs.par_iter().sum() }\nfn g(xs: &[f64]) -> f64 { xs.iter().sum() }",
        );
        assert!(out.is_clean());
    }

    #[test]
    fn determinism_sees_float_evidence_in_closure() {
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[u64]) -> f64 { xs.par_iter().map(|&x| x as f64 * 0.5).sum() }",
        );
        assert_eq!(rules_of(&out), ["W-DETERMINISM"]);
    }

    #[test]
    fn determinism_ignores_sum_inside_nested_closure_statement() {
        // The .sum() here is serial, inside a closure body (depth >= 1
        // relative to the par chain), so it must not be attributed to
        // the parallel chain.
        let out = run(
            "crates/core/src/engine.rs",
            "fn f(xs: &[Vec<f64>]) { xs.par_iter().for_each(|v| { let s: f64 = v.iter().sum(); drop(s); }); }",
        );
        assert!(out.is_clean());
    }

    // ----- W-CAST -----

    #[test]
    fn cast_fires_only_in_catalog_parsing_files() {
        let src = "fn f(n: u64) -> usize { n as usize }";
        let out = run("crates/catalog/src/shard.rs", src);
        assert_eq!(rules_of(&out), ["W-CAST"]);
        let out = run("crates/catalog/src/io.rs", src);
        assert_eq!(rules_of(&out), ["W-CAST"]);
        let out = run("crates/grid/src/mesh.rs", src);
        assert!(out.is_clean());
    }

    #[test]
    fn cast_allows_widening_and_try_from() {
        let out = run(
            "crates/catalog/src/shard.rs",
            "fn f(n: u32) -> u64 { let a = n as u64; let b = usize::try_from(n).expect(\"fits\"); a + b as u64 }",
        );
        assert!(out.is_clean());
    }

    // ----- W-UNSAFE -----

    #[test]
    fn unsafe_block_without_safety_comment_fires() {
        let out = run(
            "crates/math/src/fft.rs",
            "fn f(p: *const f64) -> f64 { unsafe { *p } }",
        );
        // Missing SAFETY + unregistered (empty registry).
        let mut rules = rules_of(&out);
        rules.sort_unstable();
        assert_eq!(rules, ["W-UNSAFE", "W-UNSAFE"]);
    }

    #[test]
    fn unsafe_with_safety_comment_and_registry_is_clean() {
        let src = "fn f(p: *const f64) -> f64 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | block | f\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert_eq!(out.unsafe_sites[0].entry.context, "f");
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\nunsafe fn read(p: *const f64) -> f64 { *p }";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | fn | read\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
    }

    #[test]
    fn unsafe_impl_context_is_implementing_type() {
        let src = "// SAFETY: columns are disjoint.\nunsafe impl Sync for DisjointCols {}";
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: src.to_string(),
            }],
            Some("crates/math/src/fft.rs | impl | DisjointCols\n"),
        );
        assert!(out.is_clean(), "findings: {:?}", out.findings);
        assert_eq!(out.unsafe_sites[0].entry.kind, "impl");
    }

    #[test]
    fn stale_registry_entry_fires() {
        let out = lint_files(
            &[SourceFile {
                path: "crates/math/src/fft.rs".to_string(),
                src: "fn f() {}".to_string(),
            }],
            Some("crates/math/src/fft.rs | block | gone\n"),
        );
        assert_eq!(rules_of(&out), ["W-UNSAFE"]);
        assert!(out.findings[0].message.contains("stale"));
        assert_eq!(out.findings[0].file, registry::REGISTRY_FILE);
    }

    #[test]
    fn unsafe_in_closure_attributes_to_enclosing_fn() {
        let src = "fn outer(rows: &[*mut f64]) {\n    rows.iter().for_each(|r| {\n        // SAFETY: rows are disjoint.\n        unsafe { drop(r) }\n    });\n}";
        let out = run("crates/math/src/fft.rs", src);
        assert_eq!(out.unsafe_sites.len(), 1);
        assert_eq!(out.unsafe_sites[0].entry.context, "outer");
    }

    #[test]
    fn safety_comment_separated_by_blank_line_does_not_count() {
        let out = run(
            "crates/math/src/fft.rs",
            "fn f(p: *const f64) -> f64 {\n    // SAFETY: stale, too far away.\n\n    unsafe { *p }\n}",
        );
        assert!(rules_of(&out).contains(&"W-UNSAFE"));
    }
}

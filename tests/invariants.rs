//! The repository's invariants, in one place that `cargo test` runs.
//!
//! - **Source rules.** Each design decision that a later change could
//!   quietly undo ("one JSON codec", "one gather proof", …) is a
//!   [`Rule`]: a matcher, a plain function of a file's path and text that
//!   returns the lines breaking the rule, and for some rules a count of
//!   sites the tree must hold. One `#[test]` checks each rule over the
//!   tree, and a test in [`planted`] feeds it a violation (it must fire)
//!   and a near miss (it must stay silent).
//! - **Pinned tests.** [`PINNED`] names the tests that goldens, CI steps
//!   and recorded measurements rely on, each with the target that holds
//!   it. Each must be defined there exactly once as a `#[test]` fn and
//!   must run: a pinned test that is renamed, deleted, duplicated,
//!   gated by a `#[cfg(…)]` other than `cfg(test)` or `#[ignore]`d fails
//!   [`pinned_tests_are_defined_once_and_run`].
//! - **The CI workflow.** Every test name a `cargo test` in
//!   `.github/workflows/ci.yml` passes must be pinned, and every
//!   `#[ignore]`d test must be run by a CI step with `--ignored`.
//!
//! A new rule is a [`Rule`], a `#[test]` that checks it and a planted
//! violation; a new pin is one line of [`PINNED`]. Std-only: the tree is
//! read once (`crates/ src/ tests/ examples/ docs/`, `README.md` and the
//! root `Cargo.toml`, no `target/` directory) and no process is started.

use std::path::Path;
use std::sync::OnceLock;

/// A file of the tree: its path from the repository root (`/`-separated)
/// and its text.
type File<'a> = (&'a str, &'a str);

/// What one file (its path and text) holds that a rule looks for, one
/// `path:line: text` each.
type Matcher = fn(&str, &str) -> Vec<String>;

/// A source rule: the lines of any file that break it and, for a rule
/// that counts, the sites of which the tree must hold exactly `n`
/// distinct ones.
struct Rule {
    why: &'static str,
    lines: Matcher,
    count: Option<(usize, Matcher)>,
}

impl Rule {
    fn broken(&self, files: &[File]) -> Vec<String> {
        let mut broken: Vec<String> = files
            .iter()
            .flat_map(|&(p, t)| (self.lines)(p, t))
            .collect();
        broken.extend(self.miscounted(files));
        broken
    }

    fn miscounted(&self, files: &[File]) -> Vec<String> {
        let Some((n, sites)) = self.count else {
            return Vec::new();
        };
        let mut found: Vec<String> = files.iter().flat_map(|&(p, t)| sites(p, t)).collect();
        found.sort();
        found.dedup();
        if found.len() == n {
            return Vec::new();
        }
        vec![format!(
            "want {n}, found {}:\n  {}",
            found.len(),
            found.join("\n  ")
        )]
    }
}

/// This file names every pattern it forbids, so the walk leaves it out.
const THIS_FILE: &str = "tests/invariants.rs";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The tree, read once per test binary.
fn tree() -> Vec<File<'static>> {
    static TREE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    let files = TREE.get_or_init(|| {
        let mut paths = Vec::new();
        for top in ["crates", "src", "tests", "examples", "docs"] {
            walk(&root().join(top), &mut paths);
        }
        paths.extend(["README.md", "Cargo.toml"].map(|f| root().join(f)));
        let mut files: Vec<(String, String)> = paths
            .into_iter()
            .map(|p| {
                let rel = p.strip_prefix(root()).unwrap().to_string_lossy();
                let text = std::fs::read(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
                (
                    rel.replace('\\', "/"),
                    String::from_utf8_lossy(&text).into_owned(),
                )
            })
            .filter(|(path, _)| path != THIS_FILE)
            .collect();
        files.sort();
        files
    });
    files
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.map(Result::unwrap) {
        let path = entry.path();
        let kind = entry.file_type().unwrap();
        if kind.is_dir() && entry.file_name() != "target" {
            walk(&path, out);
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

fn ci_yaml() -> String {
    let path = root().join(".github/workflows/ci.yml");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_holds(rule: &Rule) {
    let broken = rule.broken(&tree());
    assert!(broken.is_empty(), "{}:\n{}", rule.why, broken.join("\n"));
}

// ---------------------------------------------------------------------
// Matcher helpers. Each reproduces one grep idiom: a literal anywhere in
// a file, a line before the file's first `#[cfg(test)]` that is not a
// comment, a file that must not exist.

/// Whether `path` lies under one of `dirs` (each ending in `/`).
fn under(path: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| path.starts_with(d))
}

/// `path:line: text` of every line of `text` that `hit` picks.
fn hits(path: &str, text: &str, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let lines = text.lines().enumerate().filter(|(_, l)| hit(l));
    lines
        .map(|(n, l)| format!("{path}:{}: {l}", n + 1))
        .collect()
}

/// Lines of `text` holding any of `needles`.
fn grep(path: &str, text: &str, needles: &[&str]) -> Vec<String> {
    if !needles.iter().any(|n| text.contains(n)) {
        return Vec::new();
    }
    hits(path, text, |l| needles.iter().any(|n| l.contains(n)))
}

/// Code lines holding `needle`: before the file's first `#[cfg(test)]`
/// (at the start of a line), not `//` comments, not picked by `skip`.
fn code_hits(path: &str, text: &str, needle: &str, skip: impl Fn(&str) -> bool) -> Vec<String> {
    if !text.contains(needle) {
        return Vec::new();
    }
    let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
    let code = code
        .enumerate()
        .filter(|(_, l)| l.contains(needle) && !l.trim_start().starts_with("//") && !skip(l));
    code.map(|(n, l)| format!("{path}:{}: {l}", n + 1))
        .collect()
}

/// A violation when `path` is one of `banned`: a deleted file came back.
fn exists(path: &str, banned: &[&str]) -> Vec<String> {
    match banned.contains(&path) {
        true => vec![format!("{path} exists")],
        false => Vec::new(),
    }
}

/// Whether `line` declares a field (`name:`, `pub name:`,
/// `pub(crate) name:`) whose name `named` accepts.
fn declares_field(line: &str, named: impl Fn(&str) -> bool) -> bool {
    let l = line.trim_start();
    let after_pub = l.strip_prefix("pub").and_then(|r| {
        let r = match r.strip_prefix('(') {
            Some(inner) => {
                let (vis, rest) = inner.split_once(')')?;
                let lower = !vis.is_empty() && vis.bytes().all(|b| b.is_ascii_lowercase());
                lower.then_some(rest)?
            }
            None => r,
        };
        r.starts_with(char::is_whitespace).then(|| r.trim_start())
    });
    [Some(l), after_pub].into_iter().flatten().any(|rest| {
        let end = rest.find(|c: char| !is_word(c)).unwrap_or(rest.len());
        named(&rest[..end]) && rest[end..].trim_start().starts_with(':')
    })
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `line` holds `word` with no word character either side.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        !before.is_some_and(is_word) && !after.is_some_and(is_word)
    })
}

// ---------------------------------------------------------------------
// The source rules, one per design decision.

mod rule {
    use super::*;

    /// One JSON codec: `perforad_obs::json` builds, prints and parses
    /// every document; only `proto`'s typed frame writers lay out JSON by
    /// hand (around the hex bulk arrays), and the engine never parses
    /// text it printed itself.
    pub const ONE_JSON_CODEC: Rule = Rule {
        why: "hand-written JSON outside obs::json and serve::proto",
        lines: |path, text| {
            let mut v = Vec::new();
            let owners = ["crates/obs/src/json.rs", "crates/serve/src/proto.rs"];
            if under(path, &["crates/"]) && !owners.contains(&path) {
                v.extend(grep(path, text, &["format!(\"{{\\\"", "escape_json"]));
            }
            if path == "crates/serve/src/engine.rs" {
                v.extend(grep(path, text, &["json::parse("]));
            }
            v
        },
        count: None,
    };

    /// Telemetry at the grain of regions: one span per fused group and
    /// per pool worker, none per tile — tiles are counted, not timed.
    pub const NO_PER_TILE_SPAN: Rule = Rule {
        why: "a per-tile span: record per region (exec.group / exec.worker)",
        lines: |path, text| match under(path, &["crates/"]) {
            true => grep(path, text, &["\"exec.tile\""]),
            false => Vec::new(),
        },
        count: None,
    };

    /// One gather proof: the compiled plan is the certificate and `exec`
    /// alone reads it. The scheduler holds no `unsafe`, its own scatter
    /// refusal stays deleted, and `ScatterNeedsAtomics` is constructed in
    /// exactly one place outside tests — the tile driver.
    pub const ONE_GATHER_PROOF: Rule = Rule {
        why: "the gather proof is exec's: no unsafe in sched, one non-test ScatterNeedsAtomics",
        lines: |path, text| {
            let mut v = Vec::new();
            if under(path, &["crates/sched/src/"]) && path.ends_with(".rs") {
                v.extend(hits(path, text, |l| {
                    let l = l.trim_start();
                    l.contains("unsafe")
                        && !l.starts_with("//")
                        && !l.starts_with("#![forbid(unsafe_code)]")
                }));
            }
            if under(path, &["crates/"]) {
                v.extend(grep(path, text, &["SchedError::ScatterPlan"]));
            }
            v
        },
        // Constructions: not a comment, not a match arm, not a test.
        count: Some((1, |path, text| {
            match under(path, &["crates/"]) && path.ends_with(".rs") {
                true => code_hits(path, text, "ExecError::ScatterNeedsAtomics", |l| {
                    l.contains("=>")
                }),
                false => Vec::new(),
            }
        })),
    };

    /// One lowered form: `regir` lowers each statement straight from its
    /// `Expr` to the register program every lowering runs — the per-point
    /// reference, rows, and the JIT, which prints it. No stack bytecode
    /// comes back, no Expr-walking emitter comes back, the jit crate walks
    /// no `Expr`, and it does not depend on codegen.
    pub const ONE_LOWERED_FORM: Rule = Rule {
        why: "a second lowered form or JIT emitter: every lowering runs the RegProgram",
        lines: |path, text| {
            let mut v = exists(path, &["crates/exec/src/bytecode.rs"]);
            if under(path, &["crates/", "src/", "tests/"]) {
                v.extend(grep(path, text, &["bytecode::", "eval_with_tmps"]));
            }
            if under(path, &["crates/"]) {
                v.extend(grep(path, text, &["jit_group_module", "JitGroupSpec"]));
            }
            if under(path, &["crates/jit/src/"]) {
                v.extend(grep(path, text, &["Node::", "subst::"]));
            }
            if path == "crates/jit/Cargo.toml" {
                v.extend(grep(path, text, &["perforad-codegen"]));
            }
            v
        },
        count: None,
    };

    type LineTest = fn(&str) -> bool;

    /// The two functions that name a kernel: `fingerprint_nests` up to
    /// `machine_signature`, and `Plan::hash_structure` up to its closing
    /// brace.
    const HASH_WALKS: [(&str, LineTest, LineTest); 2] = [
        (
            "crates/tune/src/cache.rs",
            |l| l.starts_with("pub fn fingerprint_nests"),
            |l| l.starts_with("pub fn machine_signature"),
        ),
        (
            "crates/exec/src/kernel.rs",
            |l| l.starts_with("    fn hash_structure"),
            |l| l == "    }",
        ),
    ];

    /// The lines of `text` inside the hash walk of `path`, if it has one.
    pub fn hash_walk(path: &str, text: &str) -> Vec<String> {
        let Some(&(_, start, end)) = HASH_WALKS.iter().find(|w| w.0 == path) else {
            return Vec::new();
        };
        let mut inside = false;
        let mut out = Vec::new();
        for (n, l) in text.lines().enumerate() {
            inside |= start(l);
            if inside {
                out.push(format!("{path}:{}: {l}", n + 1));
                inside = !end(l);
            }
        }
        out
    }

    /// One key: the tuner's work key and a plan's fingerprint hash the
    /// IR's structure a word at a time (`exec::native::WordHash`). No text
    /// is printed to name a kernel, and FNV stays the digest of text only.
    pub const ONE_KEY: Rule = Rule {
        why: "a name hashed from printed text (feed its words to WordHash), \
              or fingerprint_nests / Plan::hash_structure moved (update this rule)",
        lines: |path, text| {
            let mut v = Vec::new();
            if under(path, &["crates/"]) {
                v.extend(grep(path, text, &["impl std::fmt::Write for Fnv"]));
            }
            let printed = ["to_string", "write!", "format!"];
            v.extend(
                hash_walk(path, text)
                    .into_iter()
                    .filter(|l| printed.iter().any(|p| l.contains(p))),
            );
            v
        },
        count: Some((2, |path, text| match hash_walk(path, text).is_empty() {
            true => Vec::new(),
            false => vec![format!("{path}: hash walk")],
        })),
    };

    /// One sweep: every shot is `checkpointed_adjoint_plan` under a
    /// `CheckpointPlan` (store-all is the budget that covers every step),
    /// and the shot state's `GridPool` alone recycles grids — no second
    /// reverse loop, no kept trajectory, no `MemStore` spare slots.
    pub const ONE_SWEEP: Rule = Rule {
        why: "a second reverse sweep or grid recycler, or checkpointed_adjoint_plan \
              called from other than one non-test place in pde",
        lines: |path, text| {
            let mut v = Vec::new();
            if under(path, &["crates/pde/"]) {
                v.extend(grep(path, text, &["store_all_core"]));
            }
            if under(path, &["crates/pde/src/"]) {
                v.extend(hits(path, text, |l| declares_field(l, |n| n == "traj")));
            }
            if path == "crates/ckpt/src/store.rs" {
                v.extend(hits(path, text, |l| {
                    declares_field(l, |n| n.starts_with("spare"))
                }));
            }
            v
        },
        count: Some((1, |path, text| {
            match under(path, &["crates/pde/"]) && path.ends_with(".rs") {
                true => code_hits(path, text, "checkpointed_adjoint_plan(", |_| false),
                false => Vec::new(),
            }
        })),
    };

    /// One definition per kernel: each paper test case is one DSL text
    /// that `nest()` parses, and nothing is generated at build time — no
    /// build script, no build-dependencies compiling the workspace twice.
    pub const ONE_DEFINITION_PER_KERNEL: Rule = Rule {
        why: "a paper kernel built term by term, or code generated at build time",
        lines: |path, text| {
            let mut v = Vec::new();
            if under(path, &["crates/"]) && path.ends_with("/build.rs") {
                v.push(format!("{path}: a build script"));
            }
            let crate_manifest = path
                .strip_prefix("crates/")
                .and_then(|p| p.strip_suffix("/Cargo.toml"));
            if path == "Cargo.toml" || crate_manifest.is_some_and(|c| !c.contains('/')) {
                v.extend(hits(path, text, |l| l.starts_with("[build-dependencies]")));
            }
            let kernels = ["wave3d", "burgers", "heat2d"];
            if kernels
                .iter()
                .any(|k| path == format!("crates/pde/src/{k}.rs"))
            {
                v.extend(grep(path, text, &["make_loop_nest", "ix!"]));
            }
            v
        },
        count: None,
    };

    /// One owner for the pool's one region: `exec::ThreadPool` runs one
    /// region at a time for any number of callers and hands each region
    /// its caller's request id, so the engine wraps the pool in no lock
    /// of its own and obs keeps no process-wide request slot.
    pub const ONE_REGION_OWNER: Rule = Rule {
        why: "the pool serialises its own regions; a request id is per thread",
        lines: |path, text| {
            let mut v = Vec::new();
            if under(path, &["crates/serve/"]) {
                v.extend(grep(path, text, &["run_lock", "with_pool"]));
            }
            if under(path, &["crates/obs/"]) {
                v.extend(grep(path, text, &["static CURRENT_REQ"]));
            }
            v
        },
        count: None,
    };

    /// One plan form: every plan compiles its statements as they are — no
    /// per-statement CSE switch in the plan, schedule, tuner or tune file
    /// options.
    pub const ONE_PLAN_FORM: Rule = Rule {
        why: "a CSE switch: plans compile one way",
        lines: |path, text| {
            let mut v = exists(path, &["crates/symbolic/src/cse.rs"]);
            if under(path, &["crates/"]) {
                v.extend(grep(path, text, &["pub cse", "with_cse", "\"cse\""]));
            }
            v
        },
        count: None,
    };

    /// One way to tune: `autotune_adjoint` is the tuner's only search
    /// entry and the primal/adjoint step-cost ratio is one constant
    /// (`tune::PRIMAL_FACTOR`); no retune of a compiled schedule, no
    /// second space enumerator, no kept JIT sources, and the tape is the
    /// one reverse-mode oracle (no stack-mode executor beside it).
    pub const ONE_WAY_TO_TUNE: Rule = Rule {
        why: "a second way to tune: autotune_adjoint is the one entry",
        lines: |path, text| {
            let mut v = exists(path, &["crates/autodiff/src/stack.rs"]);
            if under(path, &["crates/", "src/"]) {
                let gone = [
                    "ScheduleAutotune",
                    "autotune_nests",
                    "search_space_full",
                    "primal_factor",
                    "keep_sources",
                    "stack_mode_adjoint",
                ];
                v.extend(grep(path, text, &gone));
            }
            v
        },
        count: None,
    };

    /// One configuration channel: a program with a command line takes its
    /// settings as flags; the library reads only the eight deployment
    /// variables (tune and JIT caches, the JIT toolchain, checkpoint and
    /// flight-dump dirs, the memory budget, tracing and fault injection).
    pub const ONE_CONFIGURATION_CHANNEL: Rule = Rule {
        why: "a removed setting variable, or other than 8 PERFORAD_* names: a new setting takes a flag",
        lines: |path, text| {
            let mut v = Vec::new();
            if !path.ends_with(".rs") {
                return v;
            }
            if under(path, &["crates/", "src/", "examples/", "tests/"]) && text.contains("PERFORAD_") {
                let serve = ["SOCKET", "TCP", "TIMEOUT_MS", "MAX_CONNS", "MAX_QUEUE", "METRICS", "ENDPOINT", "SHUTDOWN"];
                let gone = serve.map(|s| format!("PERFORAD_SERVE_{s}"));
                let mut gone: Vec<&str> = gone.iter().map(String::as_str).collect();
                gone.push("PERFORAD_TRACE_OUT");
                v.extend(grep(path, text, &gone));
            }
            if under(path, &["crates/", "src/", "examples/", "tests/"]) {
                v.extend(grep(path, text, &["ServeOptions::from_env", "write_trace_if_configured"]));
            }
            if under(path, &["crates/serve/"]) && text.contains("fn from_env") {
                v.extend(hits(path, text, |l| has_word(l, "fn from_env")));
            }
            v
        },
        count: Some((8, |path, text| match under(path, &["crates/", "src/", "examples/"]) && path.ends_with(".rs") {
            true => setting_names(text),
            false => Vec::new(),
        })),
    };

    /// Each `"PERFORAD_[A-Z_]+"` string literal's name in `text`.
    pub fn setting_names(text: &str) -> Vec<String> {
        let quoted = text
            .match_indices("\"PERFORAD_")
            .map(|(at, _)| &text[at + 1..]);
        let names = quoted.filter_map(|rest| {
            let end = rest.find(|c: char| !(c.is_ascii_uppercase() || c == '_'))?;
            (end > "PERFORAD_".len() && rest[end..].starts_with('"'))
                .then(|| rest[..end].to_string())
        });
        names.collect()
    }

    /// Docs must not rot: every relative link in `README.md` and
    /// `docs/*.md` resolves to a real file (anchors stripped; external
    /// URLs ignored).
    pub const DOCS_LINKS_RESOLVE: Rule = Rule {
        why: "dead relative links",
        lines: |path, text| dead_links(path, text, &|p| root().join(p).exists()),
        count: None,
    };

    /// The targets of `[text](target)` links in `path` that `exists` does
    /// not find, each taken relative to the file's directory.
    pub fn dead_links(path: &str, text: &str, exists: &dyn Fn(&Path) -> bool) -> Vec<String> {
        let doc = path == "README.md"
            || path
                .strip_prefix("docs/")
                .is_some_and(|f| f.ends_with(".md") && !f.contains('/'));
        if !doc {
            return Vec::new();
        }
        let base = Path::new(path).parent().unwrap_or(Path::new(""));
        let mut dead = Vec::new();
        let mut at = 0;
        while let Some(open) = text[at..].find('[').map(|o| at + o) {
            at = open + 1;
            let Some(close) = text[at..].find(']').map(|c| at + c) else {
                break;
            };
            let Some(rest) = text[close + 1..].strip_prefix('(') else {
                continue;
            };
            let Some(len) = rest.find(')').filter(|&len| len > 0) else {
                continue;
            };
            let link = &rest[..len];
            at = close + 2 + len + 1;
            let target = link.split('#').next().unwrap().trim();
            if target.is_empty() || target.contains("://") || target.starts_with("mailto:") {
                continue;
            }
            if !exists(&base.join(target)) {
                dead.push(format!("{path}: {link}"));
            }
        }
        dead
    }

    /// The facade's `compile_fail` doctests try the edits that safe code
    /// must not make — set a plan's gather flag, push a tile, build the
    /// tile runner. Each doctest keeps the line it tries.
    pub const COMPILE_FAIL_DOCTESTS_KEEP_THEIR_EDITS: Rule = Rule {
        why: "a compile_fail doctest lost the edit it tries",
        lines: |path, text| {
            if path != "src/lib.rs" {
                return Vec::new();
            }
            let pins = [
                "plan.gather_only = true",
                "tiles.push(tile)",
                "TileRunner::new",
            ];
            let missing = pins.iter().filter(|p| !text.contains(*p));
            missing
                .map(|p| format!("src/lib.rs: pin missing: {p}"))
                .collect()
        },
        count: None,
    };
}

#[test]
fn one_json_codec() {
    assert_holds(&rule::ONE_JSON_CODEC);
}

#[test]
fn no_per_tile_span() {
    assert_holds(&rule::NO_PER_TILE_SPAN);
}

#[test]
fn one_gather_proof() {
    assert_holds(&rule::ONE_GATHER_PROOF);
}

#[test]
fn one_lowered_form() {
    assert_holds(&rule::ONE_LOWERED_FORM);
}

#[test]
fn one_key() {
    assert_holds(&rule::ONE_KEY);
}

#[test]
fn one_sweep() {
    assert_holds(&rule::ONE_SWEEP);
}

#[test]
fn one_definition_per_kernel() {
    assert_holds(&rule::ONE_DEFINITION_PER_KERNEL);
}

#[test]
fn one_region_owner() {
    assert_holds(&rule::ONE_REGION_OWNER);
}

#[test]
fn one_plan_form() {
    assert_holds(&rule::ONE_PLAN_FORM);
}

#[test]
fn one_way_to_tune() {
    assert_holds(&rule::ONE_WAY_TO_TUNE);
}

#[test]
fn one_configuration_channel() {
    assert_holds(&rule::ONE_CONFIGURATION_CHANNEL);
}

#[test]
fn docs_links_resolve() {
    assert_holds(&rule::DOCS_LINKS_RESOLVE);
}

#[test]
fn compile_fail_doctests_keep_their_edits() {
    assert_holds(&rule::COMPILE_FAIL_DOCTESTS_KEEP_THEIR_EDITS);
}

// ---------------------------------------------------------------------
// Pinned tests.

/// Tests that goldens, CI steps and recorded measurements rely on, by the
/// target that holds them: a crate's library (its `src/` without
/// `src/bin/`) or one integration-test file. A name with a module path
/// (`plan::tests::…`) must be defined in that module's file.
const PINNED: &[(&str, &[&str])] = &[
    (
        "crates/exec/src/",
        &[
            // One executor: tiles cover each nest once, every lowering
            // agrees, a tile cut for another plan is refused in release.
            "tiles_cover_the_box_disjointly",
            "job_tiles_partition_every_nest_exactly_once",
            "exec_mode_dispatch_covers_rows",
            "a_tile_outside_its_nest_is_refused_in_every_build",
            "atomic_tiled_scatter_matches_serial",
            // One lowered form: the evaluator's tests, once the bytecode
            // VM's, against register programs.
            "regir::tests::arithmetic_matches_tree_eval",
            "regir::tests::powers_and_functions",
            "regir::tests::select_branches",
            "regir::tests::padded_loads_are_zero_outside",
            "regir::tests::counters_in_scalar_position",
            "regir::tests::unknown_parameter_is_an_error",
            "regir::tests::a_sums_key_is_zero_then_each_member_and_an_add",
            // One sweep: a kernel is bound once, a swapped grid rechecked.
            "a_bound_plan_rechecks_a_swapped_grid_at_the_next_run",
            "a_bound_jit_plan_degrades_once_per_run_until_a_module_is_registered",
            // Telemetry at region grain.
            "a_pooled_run_counts_every_slab_exactly_once",
            // Names from structure.
            "one_field_moves_the_fingerprint",
            "word_hash_spells_one_stream",
            // One region owner (the two callers in release too).
            "two_callers_share_one_pool_and_each_queued_job_runs_once",
            "two_callers_share_one_pool_and_each_binned_job_runs_once",
            "a_region_opened_inside_a_region_of_the_same_pool_runs_inline",
            "a_panicking_region_leaves_the_pool_to_the_next_caller",
            "worker_spans_carry_their_callers_request_id",
        ],
    ),
    (
        "crates/tune/src/",
        &[
            "synthetic_search_is_golden",
            "a_failed_warm_up_skips_the_candidate",
            "the_cache_file_is_byte_identical_to_the_hand_formatted_writers",
            "a_negative_thread_count_is_an_error_not_usize_max",
            "the_work_key_hashes_each_right_hand_side_once",
            "concurrent_saves_never_leave_a_torn_file",
        ],
    ),
    (
        "crates/jit/src/",
        &[
            "wave_adjoint_runs_each_rows_boundary_points_inside_the_core_row_loop",
            "families_form_only_where_nest_order_is_free",
            "baseline_and_avx2_artifacts_are_bitwise_equal",
            "artifacts_hold_only_their_kernels",
        ],
    ),
    (
        "crates/ckpt/src/",
        &[
            // The exact stream: the (64, 8) goldens, never more
            // recomputation than the binomial stream, optimality against
            // a brute-force search, long plans without a steps² table,
            // the mutation check, the bitwise sweep.
            "plan::tests::golden_stream_profile_at_64_steps_budget_8",
            "plan::tests::every_plan_is_structurally_valid_and_recomputes_no_more_than_the_binomial_stream",
            "plan::tests::the_exact_split_recomputes_the_fewest_steps_any_placement_can",
            "plan::tests::long_plans_build_without_a_steps_squared_table",
            "plan::tests::a_redundant_load_or_a_dropped_save_fails_validation",
            "driver::tests::matches_store_all_bitwise_across_budgets_and_backends",
            "store::tests::restore_and_take_are_bitwise",
            "a_mem_store_holds_no_reference_to_a_freed_or_taken_snapshot",
            "observed_recompute_ratio_pins_the_plan_prediction",
        ],
    ),
    (
        "crates/pde/src/",
        &[
            "a_poisoned_kept_pool_changes_no_bit_of_the_next_run",
            "a_poisoned_lambda_face_changes_no_bit_of_the_gradient",
        ],
    ),
    (
        "crates/sched/src/",
        &[
            "uncovered_is_the_read_box_minus_the_assigned_boxes",
            "swept_boxes_match_the_pairwise_reference",
            "radius_star_adjoints_match_the_pairwise_reference",
        ],
    ),
    (
        "crates/obs/src/",
        &[
            "every_value_round_trips_through_its_own_text",
            "integer_accessors_refuse_what_an_f64_cannot_hold_exactly",
            "report_value_keys_are_pinned",
            "a_wrapped_ring_keeps_overwriting_its_oldest_span_after_a_request_is_taken",
            "plain_run_stops_where_the_byte_scan_does_at_every_offset_and_alignment",
            "strings_with_multibyte_characters_and_escapes_parse_at_every_offset",
        ],
    ),
    (
        "crates/serve/src/",
        &[
            "an_out_of_range_integer_is_refused_at_decode_by_field_name",
            "stats_and_healthz_keys_are_pinned",
            "stats_waits_on_a_busy_entry_without_holding_the_registry",
            // The wire's oracles.
            "wire_bytes_of_a_gradient_exchange_are_pinned",
            "encoder_writes_the_reference_bytes_for_every_bit_pattern",
            "decoder_agrees_with_the_reference_on_every_byte_and_on_mutations",
            "a_frame_leaves_in_one_write",
            "mutated_frames_never_panic_and_never_decode_to_a_non_finite_value",
        ],
    ),
    ("crates/symbolic/src/", &["inline_forms_agree_with_the_map_they_replaced"]),
    ("crates/codegen/src/", &["mutated_stencils_never_panic_and_refusals_point_into_the_text"]),
    (
        "tests/tiles.rs",
        &[
            "hull_tiles_are_bitwise_the_nest_by_nest_order",
            "write_sets_are_disjoint_exactly_when_the_plan_is_gather",
        ],
    ),
    (
        "tests/batch.rs",
        &[
            "golden_digest_pins_the_gradient_bits_across_sweeps_and_strategies",
            "a_warm_back_step_is_one_tile_and_one_native_call",
            "warm_store_all_run_allocates_no_trajectory_below_the_threshold_and_one_per_run_at_it",
            "warm_checkpointed_run_allocates_its_slots_once_not_a_state_per_load",
            "primal_step_runs_native_when_prepared_and_plain_rows_when_not",
        ],
    ),
    (
        "tests/names.rs",
        &[
            "emitted_group_modules_are_golden",
            "sin_plans_are_golden",
            "work_fingerprints_of_every_printed_form_are_golden",
            "printed_star_modules_are_golden",
            "paper_kernels_are_golden",
            "equal_work_keys_print_equal_nests",
            "equal_plan_fingerprints_emit_equal_modules",
            "one_field_moves_the_work_key",
            "a_plan_is_named_by_what_it_computes",
        ],
    ),
    (
        "tests/warm_compile.rs",
        &[
            "the_star_compiles_within_its_allocation_budget",
            "schedules_share_the_adjoints_nest_list",
            "the_work_key_hashes_once_per_adjoint_term",
            "a_hit_is_a_compile",
            "a_cold_search_plans_each_fusion_choice_once",
            // `#[ignore]`d: CI runs it by name, twice, across processes.
            "wave_adjoint_prepares_from_the_shared_artifact_cache",
        ],
    ),
    (
        "tests/transform_golden.rs",
        &[
            "the_benchmark_stars_are_golden",
            "the_accumulating_wave_adjoint_is_golden",
            "the_radius_two_star_is_golden",
        ],
    ),
    (
        "tests/accumulate.rs",
        &[
            "accumulate_mode_adds_the_scratch_sum_once_and_leaves_unwritten_points_alone",
            "increments_that_summing_would_reround_are_refused",
            "fingerprints_keep_plain_and_accumulate_plans_apart",
            "two_writes_to_one_point_of_an_assigned_array_are_refused",
        ],
    ),
    (
        "tests/obs.rs",
        &[
            "a_recorded_gradient_is_traced_per_region_not_per_tile",
            "a_pooled_group_records_one_worker_span_per_worker",
        ],
    ),
    (
        "tests/telemetry.rs",
        &[
            "traced_gradient_rolls_up_without_touching_the_bits",
            "concurrent_traced_gradients_keep_their_bits_spans_and_incidents",
        ],
    ),
    (
        "tests/tune.rs",
        &[
            "a_cached_entry_that_no_longer_compiles_is_searched_again",
            "fuzzed_cache_files_load_as_entries_a_version_miss_or_a_quarantine",
        ],
    ),
    ("tests/rows_properties.rs", &["random_trees_eval_bitwise_identical"]),
    ("tests/jit.rs", &["printed_modules_compile_and_match_the_executors"]),
];

/// A `#[test]` fn: the file that defines it, its name, whether it is
/// `#[ignore]`d, and the `#[cfg(…)]` other than `cfg(test)` that gates
/// it (on the fn, on a module around it or on the whole file), if any.
struct TestFn<'a> {
    path: &'a str,
    name: &'a str,
    ignored: bool,
    gate: Option<&'a str>,
}

/// The `#[test]` fns of a file: a `fn` line whose attributes (comments
/// may sit between them) include `#[test]`. A gated module ends at the
/// first `}` line at its own indentation, as rustfmt lays it out.
fn test_fns<'a>(path: &'a str, text: &'a str) -> Vec<TestFn<'a>> {
    let (mut test, mut ignored, mut cfg) = (false, false, None);
    // The gates in force, innermost last, each with the line that ends
    // it (none for the file's own).
    let mut gates: Vec<(Option<String>, &str)> = Vec::new();
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim_start();
        if gates
            .last()
            .is_some_and(|(end, _)| end.as_deref() == Some(raw.trim_end()))
        {
            gates.pop();
        }
        if line.starts_with("#![cfg(") {
            gates.push((None, line));
        } else if line.starts_with("#[test]") {
            test = true;
        } else if line.starts_with("#[ignore") {
            ignored = true;
        } else if line.starts_with("#[cfg(") && !line.starts_with("#[cfg(test)]") {
            cfg = Some(line);
        } else if !line.starts_with("#[") && !line.starts_with("//") {
            let name = line
                .strip_prefix("fn ")
                .map(|r| &r[..r.find(|c: char| !is_word(c)).unwrap_or(r.len())]);
            if let Some(name) = name.filter(|_| test) {
                out.push(TestFn {
                    path,
                    name,
                    ignored,
                    gate: cfg.or(gates.last().map(|g| g.1)),
                });
            }
            let module = line.starts_with("mod ") || line.contains(" mod ");
            if let Some(gate) = cfg.filter(|_| module && line.ends_with('{')) {
                let indent = &raw[..raw.len() - line.len()];
                gates.push((Some(format!("{indent}}}")), gate));
            }
            (test, ignored, cfg) = (false, false, None);
        }
    }
    out
}

/// Whether `path` belongs to `target`: a crate library's `src/` (not
/// `src/bin/`) or one test file.
fn in_target(target: &str, path: &str) -> bool {
    match path.strip_prefix(target) {
        Some("") => true,
        Some(rest) => target.ends_with('/') && rest.ends_with(".rs") && !rest.starts_with("bin/"),
        None => false,
    }
}

/// What is wrong with each pin of `pins`: no definition in its target,
/// more than one, a `#[cfg(…)]` gate (`cargo test -q` may never build
/// it), or an `#[ignore]` that no CI step's `--ignored` run names.
fn pin_faults(files: &[File], pins: &[(&str, &[&str])], yaml: &str) -> Vec<String> {
    let tests: Vec<TestFn> = files.iter().flat_map(|&(p, t)| test_fns(p, t)).collect();
    let runs = ci_runs(yaml);
    let mut faults = Vec::new();
    for &(target, names) in pins {
        for &pin in names {
            let (module, name) = match pin.split_once("::") {
                Some((module, _)) => (Some(module), pin.rsplit("::").next().unwrap()),
                None => (None, pin),
            };
            let in_module = |path: &str| {
                module.is_none_or(|m| {
                    path.ends_with(&format!("/{m}.rs")) || path.ends_with(&format!("/{m}/mod.rs"))
                })
            };
            let defs: Vec<&TestFn> = tests
                .iter()
                .filter(|t| t.name == name && in_target(target, t.path) && in_module(t.path))
                .collect();
            match defs[..] {
                [] => faults.push(format!("{pin}: no #[test] fn of that name in {target}")),
                [TestFn {
                    gate: Some(gate),
                    path,
                    ..
                }] => faults.push(format!("{pin}: behind {gate} in {path}")),
                [def] if def.ignored && !runs.iter().any(|r| r.ignored && r.names_test(name)) => {
                    faults.push(format!(
                        "{pin}: #[ignore]d in {} and no CI step runs it with --ignored",
                        def.path
                    ))
                }
                [_] => {}
                _ => {
                    let at: Vec<&str> = defs.iter().map(|d| d.path).collect();
                    faults.push(format!(
                        "{pin}: defined {} times in {target}: {}",
                        defs.len(),
                        at.join(", ")
                    ));
                }
            }
        }
    }
    faults
}

#[test]
fn pinned_tests_are_defined_once_and_run() {
    let faults = pin_faults(&tree(), PINNED, &ci_yaml());
    assert!(faults.is_empty(), "pinned tests:\n{}", faults.join("\n"));
}

// ---------------------------------------------------------------------
// The CI workflow's references to tests.

/// One test run a CI step makes: the test names it passes to `cargo test`
/// (filters, an `--exact` list, the list of a `for` loop around it), its
/// `--test` target, and whether it runs `--ignored` tests.
#[derive(Debug, Default)]
struct CiRun {
    names: Vec<String>,
    target: Option<String>,
    ignored: bool,
}

impl CiRun {
    /// Whether this run passes test fn `name` by name, bare or with its
    /// module path.
    fn names_test(&self, name: &str) -> bool {
        self.names
            .iter()
            .any(|n| n == name || n.ends_with(&format!("::{name}")))
    }
}

/// Flags of `cargo test` and of the test binary that take a value.
const VALUE_FLAGS: [&str; 14] = [
    "-p",
    "--package",
    "--test",
    "--bin",
    "--example",
    "--manifest-path",
    "--features",
    "-F",
    "--target",
    "--target-dir",
    "-j",
    "--jobs",
    "--profile",
    "--skip",
];

/// The test runs in a CI workflow. A run is a `cargo test` or a variable
/// holding a test binary that `cargo test --no-run` built. A
/// `$VAR` of an enclosing `for VAR in …; do` stands for each item of its
/// list. Comments are skipped; a trailing `\` continues a line.
fn ci_runs(yaml: &str) -> Vec<CiRun> {
    let mut lines = Vec::new();
    let mut pending = String::new();
    for line in yaml.lines().map(str::trim) {
        match line.strip_suffix('\\') {
            Some(head) => pending.push_str(head.trim_end()),
            None => lines.push(std::mem::take(&mut pending) + line),
        }
        if !pending.is_empty() {
            pending.push(' ');
        }
    }
    // A step's one-line `run: …` is a command too.
    let lines: Vec<String> = lines
        .into_iter()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            l.strip_prefix("run:")
                .map_or(l.as_str(), str::trim_start)
                .to_string()
        })
        .collect();
    let mut runners = Vec::new();
    for line in lines.iter().filter(|l| l.contains("cargo test")) {
        if let Some((var, _)) = line.split_once("=\"$(cargo test") {
            runners.push(format!("${}", var.trim()));
        }
    }
    let mut loops: Vec<(String, Vec<String>)> = Vec::new();
    let mut runs = Vec::new();
    for line in &lines {
        let mut body = line.as_str();
        if let Some((head, rest)) = line.strip_prefix("for ").and_then(|r| r.split_once("; do")) {
            if let Some((var, list)) = head.split_once(" in ") {
                let items = list
                    .split_whitespace()
                    .map(|w| w.trim_matches(['"', '\'']).to_string());
                loops.push((format!("${}", var.trim()), items.collect()));
                body = rest;
            }
        }
        let (outer, substituted) = unsubstitute(body);
        let commands = substituted.into_iter().chain([outer.as_str()]);
        for segment in commands
            .flat_map(|c| c.split([';', '|']))
            .flat_map(|s| s.split("&&"))
        {
            let words: Vec<&str> = segment
                .split_whitespace()
                .map(|w| w.trim_matches(['"', '\'', '(', ')', '{', '}']))
                .collect();
            // The command word: past `env`, its `-u NAME`s and `NAME=value`s.
            let at = (0..words.len()).find(|&i| {
                let w = words[i];
                !(w == "env"
                    || w.starts_with('-')
                    || w.contains('=')
                    || (i > 0 && words[i - 1] == "-u"))
            });
            let start = at.and_then(|i| match words[i] {
                "cargo" if words.get(i + 1) == Some(&"test") => Some(i + 2),
                w if runners.iter().any(|r| r == w) => Some(i + 1),
                _ => None,
            });
            if let Some(start) = start {
                runs.push(ci_run(&words[start..], &loops));
            }
        }
        if body.trim_start().starts_with("done") || body.contains("; done") {
            loops.pop();
        }
    }
    runs
}

/// `line` with each `$(…)` replaced by a placeholder word, and the
/// commands those substitutions held (each up to its first `)`).
fn unsubstitute(line: &str) -> (String, Vec<&str>) {
    let (mut outer, mut inner) = (String::new(), Vec::new());
    let mut rest = line;
    while let Some(at) = rest.find("$(") {
        outer.push_str(&rest[..at]);
        outer.push_str("SUBSTITUTED");
        let after = &rest[at + 2..];
        let close = after.find(')').unwrap_or(after.len());
        inner.push(&after[..close]);
        rest = &after[(close + 1).min(after.len())..];
    }
    outer.push_str(rest);
    (outer, inner)
}

/// The run that `args` (the words after `cargo test` or a runner) make.
fn ci_run(args: &[&str], loops: &[(String, Vec<String>)]) -> CiRun {
    let mut run = CiRun::default();
    let mut words = args.iter();
    while let Some(&w) = words.next() {
        if w == "--ignored" {
            run.ignored = true;
        } else if VALUE_FLAGS.contains(&w) || w == ">" {
            let value = words.next().map(|v| v.to_string());
            if w == "--test" {
                run.target = value;
            }
        } else if w.starts_with('-') || w.contains('>') {
            continue;
        } else if let Some((var, items)) =
            loops.iter().rev().find(|(var, _)| w.contains(var.as_str()))
        {
            run.names
                .extend(items.iter().map(|item| w.replace(var.as_str(), item)));
        } else if w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && w.chars().all(|c| is_word(c) || c == ':')
        {
            run.names.push(w.to_string());
        }
    }
    run
}

/// Names that a CI test run passes and no pin of `pins` carries (bare or
/// with its module path).
fn unpinned_ci_names(yaml: &str, pins: &[(&str, &[&str])]) -> Vec<String> {
    let pinned = |n: &str| {
        pins.iter()
            .flat_map(|(_, names)| names.iter())
            .any(|p| *p == n || p.ends_with(&format!("::{n}")))
    };
    let names = ci_runs(yaml).into_iter().flat_map(|r| r.names);
    names
        .filter(|n| !pinned(n))
        .map(|n| format!("{n}: run by CI, not pinned"))
        .collect()
}

#[test]
fn ci_runs_only_pinned_tests() {
    let faults = unpinned_ci_names(&ci_yaml(), PINNED);
    assert!(
        faults.is_empty(),
        "add each to PINNED or mend the step:\n{}",
        faults.join("\n")
    );
}

/// `#[ignore]`d tests that no `--ignored` CI run reaches: by name, or by
/// a name-less run of the test file that holds it.
fn unrun_ignored_tests(files: &[File], yaml: &str) -> Vec<String> {
    let runs = ci_runs(yaml);
    let tests = files
        .iter()
        .flat_map(|&(p, t)| test_fns(p, t))
        .filter(|t| t.ignored);
    tests
        .filter(|t| {
            let file = |r: &CiRun| {
                r.names.is_empty()
                    && r.target
                        .as_ref()
                        .is_some_and(|x| t.path == format!("tests/{x}.rs"))
            };
            !runs
                .iter()
                .any(|r| r.ignored && (r.names_test(t.name) || file(r)))
        })
        .map(|t| {
            format!(
                "{}: {} is #[ignore]d and no CI step runs it with --ignored",
                t.path, t.name
            )
        })
        .collect()
}

#[test]
fn every_ignored_test_is_run_by_ci() {
    let faults = unrun_ignored_tests(&tree(), &ci_yaml());
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

// ---------------------------------------------------------------------
// Each rule bites: a planted violation fires, a near miss stays silent.

mod planted {
    use super::*;

    /// What `rule` reports with `path` holding `text` (added, or in place
    /// of the file there): the file's own lines, and the count over the
    /// tree.
    fn with(rule: &Rule, path: &str, text: &str) -> Vec<String> {
        let mut broken = (rule.lines)(path, text);
        if rule.count.is_some() {
            let mut files: Vec<File> = tree();
            match files.iter_mut().find(|f| f.0 == path) {
                Some(f) => f.1 = text,
                None => files.push((path, text)),
            }
            broken.extend(rule.miscounted(&files));
        }
        broken
    }

    /// The text of `path` in the tree, with `from` replaced by `to` once.
    fn edited(path: &str, from: &str, to: &str) -> String {
        let text = tree().into_iter().find(|f| f.0 == path).unwrap().1;
        assert!(text.contains(from), "{path} no longer holds {from:?}");
        text.replacen(from, to, 1)
    }

    fn fires(rule: &Rule, path: &str, text: &str) {
        let v = with(rule, path, text);
        assert!(
            !v.is_empty(),
            "{path}: planted violation not reported:\n{text}"
        );
    }

    fn silent(rule: &Rule, path: &str, text: &str) {
        let v = with(rule, path, text);
        assert!(
            v.is_empty(),
            "{path}: near miss reported:\n{}",
            v.join("\n")
        );
    }

    #[test]
    fn hand_written_json_fires_outside_its_two_owners() {
        let json = "let s = format!(\"{{\\\"a\\\":{}}}\", x);\n";
        fires(&rule::ONE_JSON_CODEC, "crates/tune/src/extra.rs", json);
        fires(
            &rule::ONE_JSON_CODEC,
            "crates/serve/src/engine.rs",
            "let v = json::parse(&text)?;\n",
        );
        fires(
            &rule::ONE_JSON_CODEC,
            "crates/exec/src/x.rs",
            "use crate::escape_json;\n",
        );
        silent(&rule::ONE_JSON_CODEC, "crates/serve/src/proto.rs", json);
        silent(&rule::ONE_JSON_CODEC, "examples/x.rs", json);
    }

    #[test]
    fn a_per_tile_span_fires() {
        fires(
            &rule::NO_PER_TILE_SPAN,
            "crates/sched/src/run.rs",
            "let _s = span!(\"exec.tile\", t);\n",
        );
        silent(
            &rule::NO_PER_TILE_SPAN,
            "crates/sched/src/run.rs",
            "counter(\"exec.tiles_rows\");\n",
        );
    }

    #[test]
    fn a_second_scatter_refusal_fires() {
        let made = "        return Err(ExecError::ScatterNeedsAtomics);\n";
        fires(&rule::ONE_GATHER_PROOF, "crates/sched/src/extra.rs", made);
        fires(
            &rule::ONE_GATHER_PROOF,
            "crates/sched/src/extra.rs",
            "unsafe { p.add(1) }\n",
        );
        fires(
            &rule::ONE_GATHER_PROOF,
            "crates/sched/src/extra.rs",
            "Err(SchedError::ScatterPlan)\n",
        );
        // The one construction deleted: zero is not one either.
        let run = edited("crates/exec/src/run.rs", made, "        return Ok(());\n");
        fires(&rule::ONE_GATHER_PROOF, "crates/exec/src/run.rs", &run);
        // A comment, a match arm, a test: none of them constructs it.
        let near = "// ExecError::ScatterNeedsAtomics is made once\n\
                    ExecError::ScatterNeedsAtomics => \"atomics\",\n\
                    #[cfg(test)]\nmod tests { fn f() { Err(ExecError::ScatterNeedsAtomics) } }\n";
        silent(&rule::ONE_GATHER_PROOF, "crates/exec/src/extra.rs", near);
        silent(
            &rule::ONE_GATHER_PROOF,
            "crates/sched/src/extra.rs",
            "    // unsafe is exec's\n",
        );
    }

    #[test]
    fn a_second_lowered_form_fires() {
        fires(
            &rule::ONE_LOWERED_FORM,
            "crates/exec/src/bytecode.rs",
            "pub struct Op;\n",
        );
        fires(
            &rule::ONE_LOWERED_FORM,
            "tests/rows.rs",
            "use perforad::exec::bytecode::Op;\n",
        );
        fires(
            &rule::ONE_LOWERED_FORM,
            "src/lib.rs",
            "let y = eval_with_tmps(&p);\n",
        );
        fires(
            &rule::ONE_LOWERED_FORM,
            "crates/codegen/src/rust.rs",
            "pub fn jit_group_module() {}\n",
        );
        fires(
            &rule::ONE_LOWERED_FORM,
            "crates/jit/src/emit.rs",
            "Node::Add(a, b) => {}\n",
        );
        let manifest = edited(
            "crates/jit/Cargo.toml",
            "[dependencies]\n",
            "[dependencies]\nperforad-codegen = { path = \"../codegen\" }\n",
        );
        fires(&rule::ONE_LOWERED_FORM, "crates/jit/Cargo.toml", &manifest);
        silent(
            &rule::ONE_LOWERED_FORM,
            "crates/exec/src/regir.rs",
            "Node::Add(a, b) => {}\n",
        );
        silent(
            &rule::ONE_LOWERED_FORM,
            "examples/x.rs",
            "use bytecode::Op;\n",
        );
    }

    #[test]
    fn a_printed_name_fires() {
        let cache = "crates/tune/src/cache.rs";
        let printed = edited(cache, "pub fn fingerprint_nests", "pub fn fingerprint_nests_of(n: &N) -> String { n.to_string() }\npub fn fingerprint_nests");
        fires(&rule::ONE_KEY, cache, &printed);
        let moved = edited(cache, "pub fn fingerprint_nests", "pub fn work_key");
        fires(&rule::ONE_KEY, cache, &moved);
        fires(
            &rule::ONE_KEY,
            "crates/exec/src/native.rs",
            "impl std::fmt::Write for Fnv {}\n",
        );
        // Printing outside the walk is not hashing printed text.
        let before = edited(
            cache,
            "pub fn fingerprint_nests",
            "fn label() -> String { format!(\"x\") }\npub fn fingerprint_nests",
        );
        silent(&rule::ONE_KEY, cache, &before);
    }

    #[test]
    fn a_second_sweep_fires() {
        fires(
            &rule::ONE_SWEEP,
            "crates/pde/src/extra.rs",
            "fn store_all_core() {}\n",
        );
        fires(
            &rule::ONE_SWEEP,
            "crates/pde/src/extra.rs",
            "    pub(crate) traj: Vec<Grid>,\n",
        );
        let spares = edited(
            "crates/ckpt/src/store.rs",
            "pub struct MemStore<S> {\n",
            "pub struct MemStore<S> {\n    spare_slots: Vec<S>,\n",
        );
        fires(&rule::ONE_SWEEP, "crates/ckpt/src/store.rs", &spares);
        let call = "    let r = checkpointed_adjoint_plan(plan, s0, store, &mut step, &mut seed, &mut back)?;\n";
        fires(&rule::ONE_SWEEP, "crates/pde/src/batch2.rs", call);
        let near = format!("// checkpointed_adjoint_plan(plan, ..) is the one sweep\nlet trajectory: u8 = 0;\n#[cfg(test)]\nmod tests {{\n{call}}}\n");
        silent(&rule::ONE_SWEEP, "crates/pde/src/batch2.rs", &near);
        silent(
            &rule::ONE_SWEEP,
            "crates/exec/src/x.rs",
            "    traj: Vec<Grid>,\n",
        );
    }

    #[test]
    fn a_generated_kernel_fires() {
        fires(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/build.rs",
            "fn main() {}\n",
        );
        let manifest = edited(
            "crates/pde/Cargo.toml",
            "[dependencies]\n",
            "[build-dependencies]\nperforad-core = { path = \"../core\" }\n\n[dependencies]\n",
        );
        fires(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/Cargo.toml",
            &manifest,
        );
        fires(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/src/heat2d.rs",
            "let n = make_loop_nest(&r, e, c, b);\n",
        );
        fires(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/src/wave3d.rs",
            "let a = u.at(ix![&i]);\n",
        );
        silent(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/src/seismic.rs",
            "let a = u.at(ix![&i]);\n",
        );
        silent(
            &rule::ONE_DEFINITION_PER_KERNEL,
            "crates/pde/src/builder.rs",
            "fn main() {}\n",
        );
    }

    #[test]
    fn a_second_region_lock_fires() {
        fires(
            &rule::ONE_REGION_OWNER,
            "crates/serve/src/engine.rs",
            "let _g = self.run_lock.lock();\n",
        );
        fires(
            &rule::ONE_REGION_OWNER,
            "crates/obs/src/lib.rs",
            "static CURRENT_REQ: AtomicU64 = AtomicU64::new(0);\n",
        );
        silent(
            &rule::ONE_REGION_OWNER,
            "crates/exec/src/pool.rs",
            "let _g = self.run_lock.lock();\n",
        );
    }

    #[test]
    fn a_cse_switch_fires() {
        let tuned = "crates/sched/src/tuned.rs";
        let cse = edited(
            tuned,
            "pub struct TunedConfig {\n",
            "pub struct TunedConfig {\n    pub cse: bool,\n",
        );
        fires(&rule::ONE_PLAN_FORM, tuned, &cse);
        fires(
            &rule::ONE_PLAN_FORM,
            "crates/symbolic/src/cse.rs",
            "pub fn eliminate() {}\n",
        );
        fires(
            &rule::ONE_PLAN_FORM,
            "crates/tune/src/cache.rs",
            "map.insert(\"cse\", v);\n",
        );
        silent(
            &rule::ONE_PLAN_FORM,
            tuned,
            &edited(
                tuned,
                "pub struct TunedConfig {\n",
                "pub struct TunedConfig {\n    pub csv: bool,\n",
            ),
        );
    }

    #[test]
    fn a_second_way_to_tune_fires() {
        fires(
            &rule::ONE_WAY_TO_TUNE,
            "crates/tune/src/tuner.rs",
            "pub fn autotune_nests() {}\n",
        );
        fires(
            &rule::ONE_WAY_TO_TUNE,
            "src/lib.rs",
            "pub use perforad_tune::ScheduleAutotune;\n",
        );
        fires(
            &rule::ONE_WAY_TO_TUNE,
            "crates/autodiff/src/stack.rs",
            "pub fn run() {}\n",
        );
        silent(
            &rule::ONE_WAY_TO_TUNE,
            "tests/tune.rs",
            "let primal_factor = 0.5;\n",
        );
    }

    #[test]
    fn a_new_setting_variable_fires() {
        let knob = "let v = std::env::var(\"PERFORAD_NEW_KNOB\");\n";
        fires(
            &rule::ONE_CONFIGURATION_CHANNEL,
            "crates/tune/src/knob.rs",
            knob,
        );
        fires(
            &rule::ONE_CONFIGURATION_CHANNEL,
            "tests/fault.rs",
            "std::env::set_var(\"PERFORAD_SERVE_SOCKET\", p);\n",
        );
        fires(
            &rule::ONE_CONFIGURATION_CHANNEL,
            "crates/serve/src/extra.rs",
            "    pub fn from_env() -> Self { todo!() }\n",
        );
        fires(
            &rule::ONE_CONFIGURATION_CHANNEL,
            "examples/extra.rs",
            "write_trace_if_configured();\n",
        );
        // A ninth name used only by tests is not the library's setting,
        // and a longer fn name is not `from_env`.
        silent(&rule::ONE_CONFIGURATION_CHANNEL, "tests/knob.rs", knob);
        silent(
            &rule::ONE_CONFIGURATION_CHANNEL,
            "crates/serve/src/extra.rs",
            "    pub fn from_env_or_args() {}\n",
        );
        assert_eq!(
            rule::setting_names("\"PERFORAD_\" \"PERFORAD_JIT_CACHE\" PERFORAD_X"),
            ["PERFORAD_JIT_CACHE"]
        );
    }

    #[test]
    fn a_dead_link_fires() {
        let none = |_: &Path| false;
        let all = |_: &Path| true;
        let text = "see [ops](OPERATIONS.md#flags) and [up](../README.md), [web](https://x.org) [x](#top)\n";
        assert_eq!(
            rule::dead_links("docs/A.md", text, &none),
            ["docs/A.md: OPERATIONS.md#flags", "docs/A.md: ../README.md"]
        );
        assert!(rule::dead_links("docs/A.md", text, &all).is_empty());
        assert!(rule::dead_links("crates/x/README.md", text, &none).is_empty());
        fires(
            &rule::DOCS_LINKS_RESOLVE,
            "docs/NEW.md",
            "[gone](NOWHERE.md)\n",
        );
        let near = "[arch](ARCHITECTURE.md#top) [up](../README.md) [b]( ) [c] (NOWHERE.md) [web](https://x.org/NOWHERE.md)\n";
        silent(&rule::DOCS_LINKS_RESOLVE, "docs/NEW.md", near);
    }

    #[test]
    fn a_lost_doctest_edit_fires() {
        let lib = edited(
            "src/lib.rs",
            "plan.gather_only = true",
            "let _ = plan.gather_only()",
        );
        fires(
            &rule::COMPILE_FAIL_DOCTESTS_KEEP_THEIR_EDITS,
            "src/lib.rs",
            &lib,
        );
        let moved =
            "//! tiles.push(tile);\n//! TileRunner::new(&plan)\n//! plan.gather_only = true;\n";
        silent(
            &rule::COMPILE_FAIL_DOCTESTS_KEEP_THEIR_EDITS,
            "src/lib.rs",
            moved,
        );
    }

    /// The pins as the parent of this registry had them: the ckpt stream
    /// step named the `MemStore` test by the name it had before its spare
    /// slots were deleted.
    #[test]
    fn a_stale_pin_is_named() {
        let stale =
            "store::tests::restore_and_take_are_bitwise_and_the_mem_store_refills_its_slots";
        let faults = pin_faults(&tree(), &[("crates/ckpt/src/", &[stale])], "");
        assert_eq!(
            faults,
            [format!(
                "{stale}: no #[test] fn of that name in crates/ckpt/src/"
            )]
        );
        // In the right target under the wrong module path it is missing too.
        let moved = pin_faults(
            &tree(),
            &[(
                "crates/ckpt/src/",
                &["plan::tests::restore_and_take_are_bitwise"],
            )],
            "",
        );
        assert_eq!(moved.len(), 1, "{moved:?}");
    }

    #[test]
    fn a_duplicated_or_ignored_pin_is_named() {
        let pins: &[(&str, &[&str])] = &[("crates/tune/src/", &["synthetic_search_is_golden"])];
        let mut files = tree();
        let twice = "#[test]\nfn synthetic_search_is_golden() {}\n";
        files.push(("crates/tune/src/extra.rs", twice));
        let faults = pin_faults(&files, pins, "");
        assert!(
            faults.len() == 1 && faults[0].contains("defined 2 times"),
            "{faults:?}"
        );
        // In a binary, not the library: still once.
        files.pop();
        files.push(("crates/tune/src/bin/extra.rs", twice));
        assert!(pin_faults(&files, pins, "").is_empty());

        let path = "crates/tune/src/tuner.rs";
        let ignored = edited(
            path,
            "    fn synthetic_search_is_golden",
            "    #[ignore]\n    fn synthetic_search_is_golden",
        );
        let mut files: Vec<File> = tree();
        files.iter_mut().find(|f| f.0 == path).unwrap().1 = &ignored;
        let faults = pin_faults(&files, pins, &ci_yaml());
        assert!(
            faults.len() == 1 && faults[0].contains("#[ignore]d"),
            "{faults:?}"
        );
        // Unless a CI step runs it by name with `--ignored`.
        let yaml =
            "run: cargo test -q -p perforad-tune --lib synthetic_search_is_golden -- --ignored\n";
        assert!(pin_faults(&files, pins, yaml).is_empty());
    }

    #[test]
    fn a_gated_pin_is_named() {
        let pins: &[(&str, &[&str])] = &[("crates/tune/src/", &["synthetic_search_is_golden"])];
        let path = "crates/tune/src/tuner.rs";
        let gates = [
            (
                "    fn synthetic_search_is_golden",
                "#[cfg(feature = \"slow\")]",
            ),
            ("mod tests {", "#[cfg(not(debug_assertions))]"),
            ("//!", "#![cfg(target_arch = \"x86_64\")]"),
        ];
        for (from, gate) in gates {
            let gated = edited(path, from, &format!("{gate}\n{from}"));
            let mut files: Vec<File> = tree();
            files.iter_mut().find(|f| f.0 == path).unwrap().1 = &gated;
            let faults = pin_faults(&files, pins, "");
            assert_eq!(
                faults,
                [format!(
                    "synthetic_search_is_golden: behind {gate} in {path}"
                )]
            );
        }
        // A module's gate ends with the module, and `cfg(test)` gates
        // nothing that `cargo test` leaves out.
        let text = "\
            #[cfg(unix)]\n\
            mod unix {\n    #[test]\n    fn inside() {}\n}\n\n\
            #[cfg(test)]\n\
            mod tests {\n    #[test]\n    fn after() {}\n}\n";
        let found: Vec<_> = test_fns("tests/x.rs", text)
            .iter()
            .map(|t| (t.name, t.gate))
            .collect();
        assert_eq!(found, [("inside", Some("#[cfg(unix)]")), ("after", None)]);
    }

    #[test]
    fn a_misspelled_ci_name_is_refused() {
        let yaml = ci_yaml();
        let typos = [
            (
                "artifacts_hold_only_their_kernels",
                "artifacts_hold_only_thier_kernels",
            ),
            (
                "two_callers_share_one_pool_and_each_binned_job_runs_once",
                "two_callers_share_one_pool_and_each_bined_job_runs_once",
            ),
        ];
        for (name, typo) in typos {
            assert!(yaml.contains(name), "ci.yml no longer runs {name}");
            let faults = unpinned_ci_names(&yaml.replace(name, typo), PINNED);
            assert!(
                !faults.is_empty() && faults.iter().all(|f| f.starts_with(typo)),
                "{name}: {faults:?}"
            );
        }
        // Every form that passes a name: a filter after flags, an
        // `--exact` list after `--`, a `for` list, a test binary built by
        // `--no-run`.
        let forms = "\
            run: |\n\
              cargo test -q --test batch golden_digest_pins_the_gradient_bits_acros_sweeps\n\
              cargo test -q -p perforad-ckpt -- --exact \\\n\
                plan::tests::golden_stream_profile_at_64_steps_budget_9 | tee s.log\n\
              for t in select_branches powers_and_fnctions; do\n\
                cargo test -q -p perforad-exec --lib \"regir::tests::$t\"\n\
              done\n\
              BIN=\"$(cargo test --test warm_compile --no-run 2>&1 \\\n\
                | sed -n 's/x/y/p')\"\n\
              \"$BIN\" --ignored --nocapture wave_adjoint_prepares_from_a_cache | tee w.log\n\
              # cargo test -q some_comment_name\n";
        let faults = unpinned_ci_names(forms, PINNED);
        let want = [
            "golden_digest_pins_the_gradient_bits_acros_sweeps",
            "plan::tests::golden_stream_profile_at_64_steps_budget_9",
            "regir::tests::powers_and_fnctions",
            "wave_adjoint_prepares_from_a_cache",
        ];
        assert_eq!(faults, want.map(|n| format!("{n}: run by CI, not pinned")));
    }

    #[test]
    fn a_third_ignored_test_must_be_run_by_ci() {
        let yaml = ci_yaml();
        assert!(unrun_ignored_tests(&tree(), &yaml).is_empty());
        let third = "#[test]\n#[ignore = \"slow\"]\nfn a_third_ignored_test() {}\n";
        let mut files = tree();
        files.push(("tests/third.rs", third));
        let faults = unrun_ignored_tests(&files, &yaml);
        assert!(
            faults.len() == 1 && faults[0].contains("a_third_ignored_test"),
            "{faults:?}"
        );
        // In a file CI runs whole with `--ignored`, it is run.
        files.pop();
        files.push(("tests/checkpoint.rs", third));
        assert!(unrun_ignored_tests(&files, &yaml).is_empty());
        // `#[ignore]` in a comment ignores nothing.
        let two = tree()
            .iter()
            .flat_map(|&(p, t)| test_fns(p, t))
            .filter(|t| t.ignored)
            .count();
        assert_eq!(two, 2);
    }
}

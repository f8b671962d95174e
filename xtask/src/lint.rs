//! Source-analysis lint gate: repo-specific rules that `rustc`/`clippy`
//! cannot express, run in CI as `cargo xtask lint`.
//!
//! Eight rules, all pure text analysis over the workspace's `.rs` files:
//!
//! 1. **SAFETY comments** — every `unsafe {` block and `unsafe impl` must
//!    carry a `SAFETY:` comment, either on the same line or in the
//!    contiguous comment block directly above. This overlaps with
//!    `clippy::undocumented_unsafe_blocks` on purpose: the clippy lint only
//!    fires on code clippy actually compiles (one cfg combination at a
//!    time) — this rule sees every cfg branch, including `cfg(loom)`-only
//!    code the default clippy job never type-checks.
//! 2. **Sync-facade integrity** — inside the facade-covered crates
//!    (`netdev`, `shard`, `core`), no source file other than the facade
//!    itself (`crates/netdev/src/sync.rs`) may name `std::sync::atomic` or
//!    `std::cell::UnsafeCell`. Everything goes through `netdev::sync`, so
//!    the loom build exercises the same primitives the production build
//!    runs. `#[cfg(test)]` regions are exempt (tests run under std only).
//! 3. **Fast-path allocation ban** — the declared per-packet fast-path
//!    modules must not use allocation constructors (`Vec::new`, `Box::new`,
//!    `vec![`, `format!`, `.to_vec()`, `String::new`, `.to_string()`).
//!    `#[cfg(test)]` regions are exempt. The allocation-regression test
//!    measures the *composed* hit path at runtime with one workload; this
//!    rule keeps the leaf modules honest at the source level, whatever the
//!    workload.
//! 4. **Full re-sum ban** — the per-packet header-rewrite modules (compiled
//!    and interpreted actions, the ct/NAT rewrite path) must not call
//!    `checksum::ones_complement`. A rewrite steps the checksums that cover
//!    it (`checksum::rewrite_*`, built on the RFC 1624 `update16`/`update32`):
//!    re-summing costs a pass over the header per rewrite and turns a
//!    corrupted checksum into a valid one. `#[cfg(test)]` regions are exempt
//!    (re-summing is the oracle there).
//! 5. **One entry per execution** — every execution of a pipeline is reached
//!    through `openflow::Datapath`, whose one required entry is
//!    `process_burst` (the per-packet forms are provided bursts of one; trait
//!    methods are not `pub fn` definitions). Outside `#[cfg(test)]` regions
//!    of the datapath crates, a `pub fn process` or `pub fn process_…`
//!    definition is allowed only where [`ONE_ENTRY_ALLOWED`] names it, with
//!    its reason, so a second per-packet, traced or allocating twin of an
//!    execution cannot grow back unnoticed.
//! 6. **One controller loop** — a datapath reports punts in its verdicts and
//!    owns no controller. Outside `#[cfg(test)]` regions of the `openflow`,
//!    `core` and `ovsdp` crates, `dyn Controller` may be named only in
//!    [`ONE_CONTROLLER_ALLOWED`]: the trait and the synchronous loop
//!    (`eswitch::reactive::Reactive`). The sharded runtime's asynchronous
//!    channel lives in `shard` and is not policed.
//! 7. **One control plane** — the §3.4 update ladder has one executor and a
//!    controller's answers one applier. Outside `#[cfg(test)]` regions of
//!    the crates' `src/` trees, an `UpdatePlanner::absorb` call may appear
//!    only in [`ONE_LADDER_EXECUTOR`] (`EswitchRuntime::flow_mod`) and a
//!    `ControllerDecision::… =>` match arm only in [`ONE_DECISION_APPLIER`]
//!    (`eswitch::reactive::DecisionStats::answer`), so a second control
//!    plane cannot grow back beside them.
//! 8. **One compiler** — table decomposition (§3.2) is a choice the
//!    compiler makes per table, inside the compiled datapath. Anywhere in
//!    the workspace, tests included, `decompose_table` may be called only in
//!    [`ONE_COMPILER_ALLOWED`]: its own module, the property suite that
//!    checks a decomposition on its own, and the two reports that print one
//!    beside the compiler's choice. No launch path can then rewrite a
//!    controller's pipeline into one the controller never wrote.

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// Files whose per-packet code paths must stay allocation-free. Paths are
/// workspace-relative with `/` separators.
const FAST_PATH_MODULES: &[&str] = &[
    "crates/netdev/src/ring.rs",
    "crates/netdev/src/port.rs",
    "crates/netdev/src/classify.rs",
    "crates/netdev/src/stats.rs",
    "crates/netdev/src/flat_hash.rs",
    "crates/openflow/src/tuple_index.rs",
    "crates/ovsdp/src/minikey.rs",
    "crates/ovsdp/src/microflow.rs",
    "crates/ovsdp/src/megaflow.rs",
    "crates/conntrack/src/table.rs",
    "crates/conntrack/src/wheel.rs",
    "crates/shard/src/telemetry.rs",
    "crates/shard/src/multiport.rs",
    "crates/core/src/fastpath.rs",
    "crates/packet/src/parser.rs",
];

/// Crates whose source must route all atomics/`UnsafeCell` use through the
/// `netdev::sync` facade.
const FACADE_COVERED: &[&str] = &[
    "crates/netdev/src/",
    "crates/shard/src/",
    "crates/core/src/",
    "crates/conntrack/src/",
];

/// The one file allowed to name the raw primitives: the facade itself.
const FACADE_FILE: &str = "crates/netdev/src/sync.rs";

const BANNED_PRIMITIVES: &[&str] = &["std::sync::atomic", "std::cell::UnsafeCell"];

const BANNED_ALLOCATIONS: &[&str] = &[
    "Vec::new",
    "Box::new",
    "vec!",
    "format!",
    ".to_vec()",
    "String::new",
    ".to_string()",
];

/// Files whose code rewrites header fields per packet, or asks for such
/// rewrites: checksums there are stepped, never re-summed.
const REWRITE_MODULES: &[&str] = &[
    "crates/core/src/templates/action.rs",
    "crates/openflow/src/action.rs",
    "crates/openflow/src/ct.rs",
    "crates/conntrack/src/engine.rs",
    "crates/conntrack/src/nat.rs",
];

const BANNED_RESUMS: &[&str] = &["ones_complement"];

/// Crates whose `pub fn process…` definitions rule 5 polices.
const ONE_ENTRY_CRATES: &[&str] = &[
    "crates/openflow/src/",
    "crates/core/src/",
    "crates/ovsdp/src/",
    "crates/shard/src/",
    "crates/bench/src/",
];

/// The `pub fn process…` definitions that may exist beside the trait:
/// `(file, function, reason)`. The frozen bindings go when ROADMAP item 1a
/// re-binds `benchmark/src/sut.rs` to the trait.
const ONE_ENTRY_ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/fastpath.rs",
        "process_burst_ct",
        "the compiled walk, shared by `EswitchRuntime` and the ESWITCH shard replicas",
    ),
    (
        "crates/openflow/src/pipeline.rs",
        "process_with_key_ct",
        "the interpreter walk over a key the OVS slow path extracted once",
    ),
    (
        "crates/openflow/src/pipeline.rs",
        "process_ct",
        "the interpreter walk; frozen binding of `benchmark/src/sut.rs`'s oracle",
    ),
    (
        "crates/openflow/src/direct.rs",
        "process",
        "frozen binding of `benchmark/src/sut.rs`'s oracle; forwards to the trait",
    ),
    (
        "crates/core/src/runtime.rs",
        "process_batch_into_ct",
        "frozen binding of `benchmark/src/sut.rs`; the ESWITCH runtime's burst body",
    ),
    (
        "crates/ovsdp/src/datapath.rs",
        "process_batch_into_ct",
        "frozen binding of `benchmark/src/sut.rs`; the OVS burst body",
    ),
];

/// Crates whose non-test code rule 6 polices for `dyn Controller`.
const ONE_CONTROLLER_CRATES: &[&str] = &[
    "crates/openflow/src/",
    "crates/core/src/",
    "crates/ovsdp/src/",
];

/// The files of those crates that may name `dyn Controller`.
const ONE_CONTROLLER_ALLOWED: &[&str] = &[
    "crates/openflow/src/controller.rs",
    "crates/core/src/reactive.rs",
];

/// The one file that may call `UpdatePlanner::absorb` (rule 7).
const ONE_LADDER_EXECUTOR: &str = "crates/core/src/runtime.rs";

/// The one file that may match on `ControllerDecision` variants (rule 7).
const ONE_DECISION_APPLIER: &str = "crates/core/src/reactive.rs";

/// The files that may call `decompose_table` (rule 8).
const ONE_COMPILER_ALLOWED: &[&str] = &[
    "crates/core/src/decompose.rs",
    "crates/bench/src/bin/tab_decompose_acl.rs",
    "examples/decomposition.rs",
    "tests/properties.rs",
];

#[derive(Debug, PartialEq)]
struct Violation {
    file: String,
    /// 1-indexed.
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Strips line comments, block comments and string/char literal *contents*
/// so token searches don't match inside them. Stripped characters become
/// spaces; line structure is preserved exactly.
fn censor(src: &str) -> String {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' if matches!(next, Some('"') | Some('#')) => {
                    // Possible raw string: `r`, zero or more `#`, `"`.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j;
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: treat as a literal only if a
                    // closing quote appears within 4 chars (covers 'x',
                    // '\n', '\\', '\''); otherwise it's a lifetime tick.
                    if (1..=4).any(|d| chars.get(i + d) == Some(&'\'')) {
                        st = St::Char;
                    }
                    out.push('\'');
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 1;
                    }
                }
                '"' => {
                    st = St::Code;
                    out.push('"');
                }
                _ => out.push(if c == '\n' { '\n' } else { ' ' }),
            },
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes as usize).all(|d| chars.get(i + 1 + d) == Some(&'#')) {
                    for _ in 0..=hashes as usize {
                        out.push(' ');
                    }
                    i += hashes as usize;
                    st = St::Code;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            St::Char => match c {
                '\\' => {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 1;
                    }
                }
                '\'' => {
                    st = St::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Per-line mask over censored source: `true` for lines inside a
/// `#[cfg(test)]`-gated item (the attribute line through the close of the
/// item's brace block, or through the first `;` for braceless items).
fn test_region_mask(censored: &str) -> Vec<bool> {
    let lines: Vec<&str> = censored.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if !opened && lines[j].contains(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Rule 1: every `unsafe {` / `unsafe impl` carries a `SAFETY:` comment on
/// the same line or in the contiguous comment block directly above.
fn check_safety_comments(file: &str, src: &str) -> Vec<Violation> {
    let censored = censor(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (idx, cen) in censored.lines().enumerate() {
        let words: Vec<&str> = cen.split_whitespace().collect();
        let is_unsafe_site = words
            .windows(2)
            .any(|w| w[0] == "unsafe" && (w[1].starts_with('{') || w[1].starts_with("impl")))
            || words.last() == Some(&"unsafe")
            || cen.contains("unsafe{");
        if !is_unsafe_site {
            continue;
        }
        // Same-line comment (comments are censored out of `cen`, so check
        // the raw line).
        if raw_lines[idx].contains("SAFETY:") {
            continue;
        }
        // Contiguous comment block directly above.
        let mut documented = false;
        let mut k = idx;
        while k > 0 {
            k -= 1;
            let t = raw_lines[k].trim_start();
            if !(t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')) {
                break;
            }
            if t.contains("SAFETY:") {
                documented = true;
                break;
            }
        }
        if !documented {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: "safety-comment",
                message: "`unsafe` without a `SAFETY:` comment on the same line or in \
                          the comment block directly above"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule 2: facade-covered crates must not name the raw sync primitives
/// outside `#[cfg(test)]` regions; only the facade file itself may.
fn check_facade_bypass(file: &str, src: &str) -> Vec<Violation> {
    if file == FACADE_FILE || !FACADE_COVERED.iter().any(|p| file.starts_with(p)) {
        return Vec::new();
    }
    let censored = censor(src);
    let mask = test_region_mask(&censored);
    let mut out = Vec::new();
    for (idx, line) in censored.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for token in BANNED_PRIMITIVES {
            if line.contains(token) {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "facade-bypass",
                    message: format!(
                        "`{token}` named outside the sync facade — go through \
                         `netdev::sync` so the loom model checks this code"
                    ),
                });
            }
        }
    }
    out
}

/// Rules 3 and 4 share a shape: in each of `modules`, outside
/// `#[cfg(test)]` regions, none of `tokens` may appear.
fn check_banned_tokens(
    file: &str,
    src: &str,
    modules: &[&str],
    tokens: &[&str],
    rule: &'static str,
    why: &str,
) -> Vec<Violation> {
    if !modules.contains(&file) {
        return Vec::new();
    }
    let censored = censor(src);
    let mask = test_region_mask(&censored);
    let mut out = Vec::new();
    for (idx, line) in censored.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for token in tokens {
            if line.contains(token) {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule,
                    message: format!("`{token}` {why}"),
                });
            }
        }
    }
    out
}

/// Rule 3: declared fast-path modules must not call allocation
/// constructors outside `#[cfg(test)]` regions.
fn check_fastpath_alloc(file: &str, src: &str) -> Vec<Violation> {
    check_banned_tokens(
        file,
        src,
        FAST_PATH_MODULES,
        BANNED_ALLOCATIONS,
        "fastpath-alloc",
        "in a declared fast-path module — allocation is banned on the per-packet path",
    )
}

/// Rule 4: the header-rewrite modules must not re-sum a checksum outside
/// `#[cfg(test)]` regions.
fn check_full_resum(file: &str, src: &str) -> Vec<Violation> {
    check_banned_tokens(
        file,
        src,
        REWRITE_MODULES,
        BANNED_RESUMS,
        "full-resum",
        "in a per-packet rewrite module — step the checksum with \
         `checksum::rewrite_*` or `update16`/`update32` (RFC 1624) instead of re-summing it",
    )
}

/// Rule 5: in the datapath crates, outside `#[cfg(test)]` regions, a
/// `pub fn process` / `pub fn process_…` definition must be allowlisted.
fn check_one_entry(file: &str, src: &str) -> Vec<Violation> {
    if !ONE_ENTRY_CRATES.iter().any(|p| file.starts_with(p)) {
        return Vec::new();
    }
    let censored = censor(src);
    let mask = test_region_mask(&censored);
    let mut out = Vec::new();
    for (idx, line) in censored.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for (at, _) in line.match_indices("pub fn ") {
            let name: String = line[at + "pub fn ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let entry = name == "process" || name.starts_with("process_");
            if entry
                && !ONE_ENTRY_ALLOWED
                    .iter()
                    .any(|(f, n, _)| *f == file && *n == name)
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "one-entry",
                    message: format!(
                        "`pub fn {name}` beside `openflow::Datapath::process_burst` — \
                         implement the trait's one burst entry and call its provided \
                         `process`/`process_ct`, or allowlist it with a reason"
                    ),
                });
            }
        }
    }
    out
}

/// True when `line` names the trait object `dyn Controller`, however its
/// path is spelled (`dyn openflow::Controller`, `dyn crate::controller::
/// Controller`).
fn names_dyn_controller(line: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices("dyn").any(|(at, _)| {
        let before = line[..at].chars().next_back();
        let rest = &line[at + "dyn".len()..];
        if before.is_some_and(ident) || !rest.starts_with(char::is_whitespace) {
            return false;
        }
        let path: String = rest
            .trim_start()
            .chars()
            .take_while(|&c| ident(c) || c == ':')
            .collect();
        path.rsplit("::").next() == Some("Controller")
    })
}

/// Rule 6: in the datapath crates, outside `#[cfg(test)]` regions,
/// `dyn Controller` appears only in the allowlisted files.
fn check_one_controller(file: &str, src: &str) -> Vec<Violation> {
    if !ONE_CONTROLLER_CRATES.iter().any(|p| file.starts_with(p))
        || ONE_CONTROLLER_ALLOWED.contains(&file)
    {
        return Vec::new();
    }
    let censored = censor(src);
    let mask = test_region_mask(&censored);
    censored
        .lines()
        .enumerate()
        .filter(|(idx, line)| {
            !mask.get(*idx).copied().unwrap_or(false) && names_dyn_controller(line)
        })
        .map(|(idx, _)| Violation {
            file: file.to_string(),
            line: idx + 1,
            rule: "one-controller",
            message: "`dyn Controller` in a datapath crate — report punts in the verdicts \
                      and let `eswitch::reactive::Reactive` answer them"
                .to_string(),
        })
        .collect()
}

/// True when `line` calls `absorb` as a method or through a path
/// (`planner.absorb(`, `UpdatePlanner::absorb(`); a definition is not a call.
fn calls_absorb(line: &str) -> bool {
    line.contains(".absorb(") || line.contains("::absorb(")
}

/// True when `line` holds a match arm on a `ControllerDecision` variant: the
/// variant path followed, later on the line, by `=>`.
fn matches_controller_decision(line: &str) -> bool {
    line.match_indices("ControllerDecision::")
        .any(|(at, _)| line[at..].contains("=>"))
}

/// Rule 7: in the crates' non-test code, `absorb` is called only by the one
/// ladder executor and `ControllerDecision` is matched only by the one
/// decision applier.
fn check_one_control_plane(file: &str, src: &str) -> Vec<Violation> {
    if !(file.starts_with("crates/") && file.contains("/src/")) {
        return Vec::new();
    }
    let censored = censor(src);
    let mask = test_region_mask(&censored);
    let mut out = Vec::new();
    for (idx, line) in censored.lines().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let message = if file != ONE_LADDER_EXECUTOR && calls_absorb(line) {
            "`UpdatePlanner::absorb` outside `EswitchRuntime::flow_mod` — apply the \
             flow-mod through an `EswitchRuntime`, the ladder's one executor"
        } else if file != ONE_DECISION_APPLIER && matches_controller_decision(line) {
            "`ControllerDecision` matched outside `eswitch::reactive` — answer through \
             `DecisionStats::answer` with a `DecisionSink`"
        } else {
            continue;
        };
        out.push(Violation {
            file: file.to_string(),
            line: idx + 1,
            rule: "one-control-plane",
            message: message.to_string(),
        });
    }
    out
}

/// True when `line` calls `decompose_table` (a definition is not a call).
fn calls_decompose_table(line: &str) -> bool {
    line.match_indices("decompose_table(").any(|(at, _)| {
        let before = &line[..at];
        !before.trim_end().ends_with("fn")
            && !before
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// Rule 8: `decompose_table` is called only by the compiler and the
/// allowlisted files, test code included.
fn check_one_compiler(file: &str, src: &str) -> Vec<Violation> {
    if ONE_COMPILER_ALLOWED.contains(&file) {
        return Vec::new();
    }
    censor(src)
        .lines()
        .enumerate()
        .filter(|(_, line)| calls_decompose_table(line))
        .map(|(idx, _)| Violation {
            file: file.to_string(),
            line: idx + 1,
            rule: "one-compiler",
            message: "`decompose_table` outside the compiler — compile the pipeline and let \
                      the compiler decide on the chain; the controller's pipeline is never \
                      rewritten"
                .to_string(),
        })
        .collect()
}

fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let mut v = check_safety_comments(rel_path, src);
    v.extend(check_facade_bypass(rel_path, src));
    v.extend(check_fastpath_alloc(rel_path, src));
    v.extend(check_full_resum(rel_path, src));
    v.extend(check_one_entry(rel_path, src));
    v.extend(check_one_controller(rel_path, src));
    v.extend(check_one_control_plane(rel_path, src));
    v.extend(check_one_compiler(rel_path, src));
    v
}

/// Collects every workspace-owned `.rs` file (crates/, xtask/, vendor/,
/// tests/, examples/, src/), skipping build output.
fn collect_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut stack: Vec<std::path::PathBuf> =
        ["crates", "xtask", "vendor", "tests", "examples", "src"]
            .iter()
            .map(|d| root.join(d))
            .filter(|d| d.is_dir())
            .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                match std::fs::read_to_string(&path) {
                    Ok(src) => files.push((rel, src)),
                    Err(e) => eprintln!("xtask lint: skipping unreadable {rel}: {e}"),
                }
            }
        }
    }
    files.sort();
    files
}

pub fn run() -> ExitCode {
    // xtask lives at <root>/xtask; fall back to the cwd for direct runs.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|dir| Path::new(&dir).parent().map(Path::to_path_buf))
        .unwrap_or_else(|| Path::new(".").to_path_buf());

    let sources = collect_sources(&root);
    if sources.is_empty() {
        eprintln!("xtask lint: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }

    let mut violations = Vec::new();
    for (rel, src) in &sources {
        violations.extend(check_file(rel, src));
    }

    if violations.is_empty() {
        println!(
            "xtask lint: {} files clean (safety-comment, facade-bypass, fastpath-alloc, full-resum, one-entry, one-controller, one-control-plane, one-compiler)",
            sources.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    // ---- rule 1: SAFETY comments -------------------------------------

    #[test]
    fn undocumented_unsafe_block_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = check_safety_comments("crates/x/src/lib.rs", src);
        assert_eq!(rules(&v), ["safety-comment"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn undocumented_unsafe_impl_is_flagged() {
        let src = "struct X;\nunsafe impl Send for X {}\n";
        let v = check_safety_comments("crates/x/src/lib.rs", src);
        assert_eq!(rules(&v), ["safety-comment"]);
    }

    #[test]
    fn comment_block_above_documents_the_unsafe() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees `p` is valid.\n    unsafe { *p }\n}\n";
        assert!(check_safety_comments("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn same_line_block_comment_documents_the_unsafe() {
        let src = "fn f(p: *const u8) -> u8 {\n    /* SAFETY: p valid */ unsafe { *p }\n}\n";
        assert!(check_safety_comments("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unrelated_comment_above_does_not_count() {
        let src = "fn f(p: *const u8) -> u8 {\n    // reads the byte\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules(&check_safety_comments("crates/x/src/lib.rs", src)),
            ["safety-comment"]
        );
    }

    #[test]
    fn safety_comment_separated_by_code_does_not_count() {
        let src = "// SAFETY: stale, belongs to something else\nfn g() {}\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules(&check_safety_comments("crates/x/src/lib.rs", src)),
            ["safety-comment"]
        );
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src =
            "fn f() -> &'static str {\n    // unsafe { nope }\n    \"unsafe { also nope }\"\n}\n";
        assert!(check_safety_comments("crates/x/src/lib.rs", src).is_empty());
    }

    // ---- rule 2: facade bypass ---------------------------------------

    #[test]
    fn raw_atomics_in_covered_crate_are_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        let v = check_facade_bypass("crates/netdev/src/ring.rs", src);
        assert_eq!(rules(&v), ["facade-bypass"]);
    }

    #[test]
    fn raw_unsafecell_in_covered_crate_is_flagged() {
        let src = "struct S { c: std::cell::UnsafeCell<u32> }\n";
        let v = check_facade_bypass("crates/shard/src/runtime.rs", src);
        assert_eq!(rules(&v), ["facade-bypass"]);
    }

    #[test]
    fn facade_file_itself_is_exempt() {
        let src = "pub use std::sync::atomic;\npub use std::cell::UnsafeCell;\n";
        assert!(check_facade_bypass(FACADE_FILE, src).is_empty());
    }

    #[test]
    fn uncovered_crate_is_exempt() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert!(check_facade_bypass("crates/openflow/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicUsize;\n    #[test]\n    fn t() { let _ = AtomicUsize::new(0); }\n}\n";
        assert!(check_facade_bypass("crates/core/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_region_is_still_checked() {
        let src = "#[cfg(test)]\nmod tests {\n}\n\nuse std::sync::atomic::AtomicUsize;\n";
        let v = check_facade_bypass("crates/core/src/runtime.rs", src);
        assert_eq!(rules(&v), ["facade-bypass"]);
        assert_eq!(v[0].line, 5);
    }

    // ---- rule 3: fast-path allocations -------------------------------

    #[test]
    fn vec_new_in_fast_path_module_is_flagged() {
        let src = "pub fn hot() -> Vec<u8> {\n    Vec::new()\n}\n";
        let v = check_fastpath_alloc("crates/netdev/src/ring.rs", src);
        assert_eq!(rules(&v), ["fastpath-alloc"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn box_new_and_format_are_flagged() {
        let src =
            "pub fn hot() {\n    let _b = Box::new(1u32);\n    let _s = format!(\"{}\", 1);\n}\n";
        let v = check_fastpath_alloc("crates/netdev/src/stats.rs", src);
        assert_eq!(rules(&v), ["fastpath-alloc", "fastpath-alloc"]);
    }

    #[test]
    fn to_vec_is_flagged() {
        let src = "pub fn hot(s: &[u8]) -> Vec<u8> { s.to_vec() }\n";
        assert_eq!(
            rules(&check_fastpath_alloc("crates/ovsdp/src/minikey.rs", src)),
            ["fastpath-alloc"]
        );
    }

    #[test]
    fn port_and_classifier_modules_are_covered() {
        for file in ["crates/netdev/src/port.rs", "crates/netdev/src/classify.rs"] {
            let src = "pub fn hot() -> Vec<u8> { Vec::new() }\n";
            assert_eq!(rules(&check_fastpath_alloc(file, src)), ["fastpath-alloc"]);
        }
    }

    #[test]
    fn compiled_burst_walk_module_is_covered() {
        // The compiled datapath's per-packet code (burst table walk + key
        // loaders) lives in its own file so the file-granular ban can cover
        // it; the templates' compile-time constructors stay outside.
        let src = "pub fn walk() -> Vec<u8> { vec![0u8; 4] }\n";
        assert_eq!(
            rules(&check_fastpath_alloc("crates/core/src/fastpath.rs", src)),
            ["fastpath-alloc"]
        );
        assert!(check_fastpath_alloc("crates/core/src/templates/table.rs", src).is_empty());
    }

    #[test]
    fn rx_parser_module_is_covered() {
        // `Port::rx_burst_into` parses every received frame: the parser is
        // per-packet code. The packet handle beside it allocates by design
        // (one block per packet, outside the lap) and is not listed.
        let src = "pub fn parse(frame: &[u8]) -> Vec<u8> { frame.to_vec() }\n";
        assert_eq!(
            rules(&check_fastpath_alloc("crates/packet/src/parser.rs", src)),
            ["fastpath-alloc"]
        );
        assert!(check_fastpath_alloc("crates/packet/src/packet.rs", src).is_empty());
        // The handle is safe Rust today; an `unsafe` block added to it falls
        // under the SAFETY-comment rule like any other file.
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules(&check_file("crates/packet/src/packet.rs", src)),
            ["safety-comment"]
        );
    }

    #[test]
    fn port_stage_module_is_covered() {
        // The port dispatcher's classify/steer loop and the workers' egress
        // `route` are per-packet code: staging vectors are pre-sized in the
        // constructors. The runtime that spawns them (thread names are
        // `format!`ed there) stays outside.
        let src = "fn route(&mut self) { self.emit = Vec::new(); }\n";
        assert_eq!(
            rules(&check_fastpath_alloc("crates/shard/src/multiport.rs", src)),
            ["fastpath-alloc"]
        );
        assert!(check_fastpath_alloc("crates/shard/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn emc_module_is_covered() {
        // Every packet probes the EMC and sampled megaflow hits insert into
        // it; its slot array is collected, not built with `vec!`.
        let src = "pub fn with_capacity(n: usize) -> Self {\n    Self { slots: vec![None; n].into() }\n}\n";
        let v = check_fastpath_alloc("crates/ovsdp/src/microflow.rs", src);
        assert_eq!(rules(&v), ["fastpath-alloc"]);
        assert_eq!(v[0].line, 2);
        let src = "pub fn with_capacity(n: usize) -> Self {\n    Self { slots: (0..n).map(|_| None).collect() }\n}\n";
        assert!(check_fastpath_alloc("crates/ovsdp/src/microflow.rs", src).is_empty());
    }

    #[test]
    fn non_fast_path_module_is_exempt() {
        let src = "pub fn setup() -> Vec<u8> { Vec::new() }\n";
        assert!(check_fastpath_alloc("crates/ovsdp/src/megaflow/grow.rs", src).is_empty());
    }

    #[test]
    fn fast_path_test_region_is_exempt() {
        let src = "pub fn hot() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = vec![1u8]; }\n}\n";
        assert!(check_fastpath_alloc("crates/netdev/src/ring.rs", src).is_empty());
    }

    #[test]
    fn alloc_token_in_comment_or_string_is_ignored() {
        let src = "// avoid Vec::new here\npub fn hot() -> &'static str { \"Box::new\" }\n";
        assert!(check_fastpath_alloc("crates/netdev/src/ring.rs", src).is_empty());
    }

    #[test]
    fn flat_hash_probe_module_is_covered_and_its_grow_half_is_not() {
        // Probe, in-place insert and backward-shift remove run per packet or
        // per flow-mod; building and re-homing the slot array allocate and
        // live in the child module.
        let src = "fn grow(&mut self) { self.slots = vec![None; 8].into(); }\n";
        assert_eq!(
            rules(&check_fastpath_alloc("crates/netdev/src/flat_hash.rs", src)),
            ["fastpath-alloc"]
        );
        assert!(check_fastpath_alloc("crates/netdev/src/flat_hash/grow.rs", src).is_empty());
    }

    // ---- rule 4: full re-sum -----------------------------------------

    #[test]
    fn resumming_in_a_rewrite_module_is_flagged() {
        let src = "fn refresh(h: &mut [u8]) {\n    let c = checksum::ones_complement(h);\n}\n";
        for file in REWRITE_MODULES {
            let v = check_full_resum(file, src);
            assert_eq!(rules(&v), ["full-resum"], "{file}");
            assert_eq!(v[0].line, 2);
        }
    }

    #[test]
    fn resumming_elsewhere_or_in_tests_is_allowed() {
        // Builders and verifiers re-sum by design; so do the rewrite
        // modules' own tests, where it is the oracle.
        let src = "fn build(h: &[u8]) -> u16 { checksum::ones_complement(h) }\n";
        assert!(check_full_resum("crates/packet/src/ipv4.rs", src).is_empty());
        let src = "fn step() {}\n\n#[cfg(test)]\nmod tests {\n    fn t(h: &[u8]) -> u16 { pkt::checksum::ones_complement(h) }\n}\n";
        assert!(check_full_resum("crates/openflow/src/action.rs", src).is_empty());
    }

    // ---- rule 5: one entry per execution ------------------------------

    #[test]
    fn new_process_twin_in_ovsdp_is_flagged_and_processed_is_not() {
        let src = "impl OvsDatapath {\n    pub fn process_batch(&self) {}\n    pub fn processed(&self) -> u64 { 0 }\n}\n";
        let v = check_one_entry("crates/ovsdp/src/datapath.rs", src);
        assert_eq!(rules(&v), ["one-entry"]);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("process_batch"));
        let src = "pub fn process(&self) {}\n";
        assert_eq!(
            rules(&check_one_entry("crates/bench/src/datapath.rs", src)),
            ["one-entry"]
        );
    }

    #[test]
    fn allowlisted_entries_pass_only_where_listed() {
        let src = "pub fn process_batch_into_ct(&self) {}\n";
        assert!(check_one_entry("crates/ovsdp/src/datapath.rs", src).is_empty());
        assert_eq!(
            rules(&check_one_entry("crates/ovsdp/src/megaflow.rs", src)),
            ["one-entry"]
        );
        for (file, name, reason) in ONE_ENTRY_ALLOWED {
            assert!(!reason.is_empty(), "{file}::{name} needs a reason");
            let src = format!("pub fn {name}(&self) {{}}\n");
            assert!(check_one_entry(file, &src).is_empty(), "{file}::{name}");
        }
    }

    #[test]
    fn one_entry_exempts_tests_trait_methods_and_other_crates() {
        let src = "trait Datapath {\n    fn process(&self) {}\n}\n\n#[cfg(test)]\nmod tests {\n    pub fn process_one() {}\n}\n";
        assert!(check_one_entry("crates/openflow/src/datapath.rs", src).is_empty());
        let src = "pub fn process_burst(&self) {}\n";
        assert!(check_one_entry("crates/conntrack/src/engine.rs", src).is_empty());
        assert!(check_one_entry("benchmark/src/sut.rs", src).is_empty());
    }

    // ---- rule 6: one controller loop ----------------------------------

    #[test]
    fn controller_owned_by_a_datapath_is_flagged() {
        let src = "pub struct OvsDatapath {\n    controller: Mutex<Box<dyn Controller>>,\n}\n";
        let v = check_one_controller("crates/ovsdp/src/datapath.rs", src);
        assert_eq!(rules(&v), ["one-controller"]);
        assert_eq!(v[0].line, 2);
        let src = "pub fn with_controller(c: Box<dyn  openflow::Controller>) {}\n";
        assert_eq!(
            rules(&check_one_controller("crates/openflow/src/direct.rs", src)),
            ["one-controller"]
        );
        assert_eq!(
            rules(&check_file("crates/core/src/runtime.rs", src)),
            ["one-controller"]
        );
    }

    #[test]
    fn one_controller_allowlist_tests_and_other_crates_pass() {
        let src = "fn f(c: Box<dyn Controller>) {}\n";
        for file in ONE_CONTROLLER_ALLOWED {
            assert!(check_one_controller(file, src).is_empty(), "{file}");
        }
        // The asynchronous channel, the workloads' controllers and tests.
        assert!(check_one_controller("crates/shard/src/controller.rs", src).is_empty());
        assert!(check_one_controller("crates/workloads/src/usecases/gateway.rs", src).is_empty());
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn c() -> Box<dyn Controller> { todo!() }\n}\n";
        assert!(check_one_controller("crates/core/src/runtime.rs", src).is_empty());
        // Neighbouring names, comments and strings do not count.
        let src = "// a dyn Controller\nfn f(_: &dyn ControllerDecision, _: Box<dyn Datapath>) -> &'static str { \"dyn Controller\" }\nfn g(_: &mydyn Controller) {}\n";
        assert!(check_one_controller("crates/core/src/runtime.rs", src).is_empty());
    }

    // ---- rule 7: one control plane -----------------------------------

    #[test]
    fn second_ladder_executor_or_decision_match_is_flagged() {
        let src = "fn publish(&self) {\n    match UpdatePlanner::new(config).absorb(&p, dp, fm, &e) {\n        _ => {}\n    }\n}\n";
        let v = check_one_control_plane("crates/shard/src/runtime.rs", src);
        assert_eq!(rules(&v), ["one-control-plane"]);
        assert_eq!(v[0].line, 2);
        let src = "fn f(p: &UpdatePlanner) { UpdatePlanner::absorb(p, a, b, c, d); }\n";
        assert_eq!(
            rules(&check_file("crates/bench/src/lib.rs", src)),
            ["one-control-plane"]
        );
        let src = "fn handle(d: ControllerDecision) {\n    match d {\n        ControllerDecision::FlowMod(fm) => {}\n        ControllerDecision::PacketOut(po) if po.resubmit => {}\n        _ => {}\n    }\n}\n";
        let v = check_one_control_plane("crates/shard/src/controller.rs", src);
        assert_eq!(rules(&v), ["one-control-plane", "one-control-plane"]);
        assert_eq!((v[0].line, v[1].line), (3, 4));
    }

    #[test]
    fn one_control_plane_allows_its_homes_tests_and_non_arms() {
        let src = "fn f() { planner.absorb(&p, &d, fm, &e); }\n";
        assert!(check_one_control_plane(ONE_LADDER_EXECUTOR, src).is_empty());
        let src = "fn f(d: ControllerDecision) {\n    match d {\n        ControllerDecision::Drop => {}\n    }\n}\n";
        assert!(check_one_control_plane(ONE_DECISION_APPLIER, src).is_empty());
        // Test regions, integration tests and other trees are not policed.
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() { planner.absorb(&p, &d, fm, &e); }\n}\n";
        assert!(check_one_control_plane("crates/core/src/update.rs", src).is_empty());
        let src = "fn f(d: ControllerDecision) { match d { ControllerDecision::Drop => {} } }\n";
        assert!(check_one_control_plane("tests/reactive_equivalence.rs", src).is_empty());
        assert!(check_one_control_plane("crates/shard/tests/loom_fixpoint.rs", src).is_empty());
        // Definitions, constructions, comments and strings do not count.
        let src = "pub fn absorb(&self) {}\nfn a() -> Vec<ControllerDecision> { vec![ControllerDecision::Drop] }\nfn b(x: u8) -> ControllerDecision {\n    match x {\n        0 => ControllerDecision::Drop,\n        _ => todo!(),\n    }\n}\n// ControllerDecision::Drop => {}\nfn c() -> &'static str { \".absorb(\" }\n";
        assert!(
            check_one_control_plane("crates/workloads/src/usecases/gateway.rs", src).is_empty()
        );
    }

    // ---- rule 8: one compiler ----------------------------------------

    #[test]
    fn decomposition_outside_the_compiler_is_flagged() {
        let src = "fn launch(p: Pipeline) {\n    let t = eswitch::decompose::decompose_table(&table, &mut id);\n}\n";
        let v = check_one_compiler("crates/shard/src/backend.rs", src);
        assert_eq!(rules(&v), ["one-compiler"]);
        assert_eq!(v[0].line, 2);
        // Test code and the crates' non-`src` trees are policed too.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { decompose_table(&t, &mut n); }\n}\n";
        assert_eq!(
            rules(&check_file("crates/core/src/runtime.rs", src)),
            ["one-compiler"]
        );
        let src = "fn main() { for t in decompose_table(&t, &mut n) {} }\n";
        assert_eq!(
            rules(&check_one_compiler("examples/load_balancer.rs", src)),
            ["one-compiler"]
        );
        assert_eq!(
            rules(&check_one_compiler("crates/bench/src/bin/fig12_lb.rs", src)),
            ["one-compiler"]
        );
    }

    #[test]
    fn one_compiler_allows_its_homes_definitions_and_other_names() {
        let src = "fn f() { let chain = decompose_table(&table, &mut next_id); }\n";
        for file in ONE_COMPILER_ALLOWED {
            assert!(check_one_compiler(file, src).is_empty(), "{file}");
        }
        // The definition, a longer name, comments and strings do not count.
        let src = "pub fn decompose_table(t: &FlowTable) {}\nfn g() { my_decompose_table(1); }\n// decompose_table(&t)\nfn h() -> &'static str { \"decompose_table(\" }\n";
        assert!(check_one_compiler("crates/shard/src/backend.rs", src).is_empty());
    }

    // ---- plumbing ----------------------------------------------------

    #[test]
    fn censor_preserves_line_count() {
        let src = "fn a() {}\n/* multi\nline */\nfn b() { let s = \"x\ny\"; let _ = s; }\n";
        assert_eq!(censor(src).lines().count(), src.lines().count());
    }

    #[test]
    fn check_file_aggregates_rules() {
        let src = "use std::sync::atomic::AtomicUsize;\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = check_file("crates/netdev/src/ring.rs", src);
        let mut r = rules(&v);
        r.sort_unstable();
        assert_eq!(r, ["facade-bypass", "safety-comment"]);
    }
}

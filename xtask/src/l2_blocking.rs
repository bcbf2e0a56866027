//! Pass L2 — no blocking calls inside async fns, workspace-wide (every
//! library crate's sources, not just the broker and cli).
//!
//! Flags, inside `async fn` bodies / `async` blocks outside test code:
//!
//! * `std::thread::sleep` (use `tokio::time::sleep`),
//! * blocking `std::net` socket types (`TcpStream`, `TcpListener`,
//!   `UdpSocket`) — use the `tokio::net` equivalents,
//! * blocking `std::fs` filesystem calls (`fs::read`, `fs::File::open`,
//!   …) — use `tokio::fs` or move the I/O to `spawn_blocking`,
//! * `block_on(…)` (nested runtimes deadlock),
//! * a synchronous mutex guard (`.lock()` / `.read()` / `.write()` with
//!   no arguments, i.e. `std::sync` or `parking_lot`) held across an
//!   `.await` point. `tokio::sync` acquisitions are recognised by the
//!   immediately following `.await` and exempted.
//!
//! The guard-across-await check is a token-level heuristic over Rust's
//! temporary-lifetime rules: a guard temporary lives to the end of its
//! full statement (including `for`/`match`/`if let` scrutinee extension),
//! and a `let`-bound guard lives to the end of its enclosing block.
//! False positives are silenced with `// lint:allow(blocking) <reason>`.

use crate::lexer::{Kind, Token};
use crate::spans::{matching_brace, FileFacts};
use crate::Finding;

const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];
const BLOCKING_NET_TYPES: [&str; 3] = ["TcpStream", "TcpListener", "UdpSocket"];

/// Runs the pass over one file's tokens.
pub fn check(path: &str, tokens: &[Token], facts: &FileFacts, findings: &mut Vec<Finding>) {
    for (i, token) in tokens.iter().enumerate() {
        if !facts.in_async(i)
            || facts.in_test.get(i).copied().unwrap_or(false)
            || facts.in_attr.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        if token.kind != Kind::Ident {
            continue;
        }
        let path_prefix = |steps_back: usize, word: &str| -> bool {
            // `word :: … :: token` — check the ident `steps_back` path
            // segments before this one.
            let offset = steps_back * 3;
            i.checked_sub(offset).is_some_and(|j| {
                tokens.get(j).is_some_and(|t| t.is_ident(word))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(b':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_punct(b':'))
            })
        };
        match token.text.as_str() {
            "sleep"
                if path_prefix(1, "thread") && facts.allowed("blocking", token.line).is_none() =>
            {
                findings.push(finding(
                    path,
                    token.line,
                    "`std::thread::sleep` blocks the async executor; use \
                     `tokio::time::sleep`",
                ));
            }
            "block_on"
                if tokens.get(i + 1).is_some_and(|t| t.is_punct(b'('))
                    && facts.allowed("blocking", token.line).is_none() =>
            {
                findings.push(finding(
                    path,
                    token.line,
                    "`block_on` inside an async context can deadlock the runtime",
                ));
            }
            t if BLOCKING_NET_TYPES.contains(&t)
                && path_prefix(1, "net")
                && path_prefix(2, "std")
                && facts.allowed("blocking", token.line).is_none() =>
            {
                findings.push(finding(
                    path,
                    token.line,
                    &format!("blocking `std::net::{t}` in async code; use `tokio::net::{t}`"),
                ));
            }
            // `fs::<anything>` (`std::fs::read`, `fs::File::open` via the
            // `File` segment…) — `tokio::fs` is exempted by its prefix.
            _ if path_prefix(1, "fs")
                && !path_prefix(2, "tokio")
                && facts.allowed("blocking", token.line).is_none() =>
            {
                findings.push(finding(
                    path,
                    token.line,
                    "blocking `std::fs` call in async code; use `tokio::fs` or \
                     `spawn_blocking`",
                ));
            }
            t if GUARD_METHODS.contains(&t) => {
                check_guard_across_await(path, tokens, facts, i, findings);
            }
            _ => {}
        }
    }
}

fn finding(path: &str, line: u32, message: &str) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        pass: "L2",
        category: "blocking",
        message: format!("{message}; annotate `// lint:allow(blocking) <reason>` if intended"),
    }
}

/// `i` points at a `lock`/`read`/`write` ident inside an async span.
/// Flags the site when the call is a zero-argument guard acquisition
/// whose guard is provably live across a later `.await`.
fn check_guard_across_await(
    path: &str,
    tokens: &[Token],
    facts: &FileFacts,
    i: usize,
    findings: &mut Vec<Finding>,
) {
    let is_method_call = i > 0
        && tokens.get(i - 1).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'('))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(b')'));
    if !is_method_call {
        // `.read(&mut buf)`, `write!(…)`, free fns etc. are not guard
        // acquisitions.
        return;
    }
    // `.lock().await` — a tokio/async mutex; holding those across awaits
    // is exactly what they are for.
    let awaited_immediately = tokens.get(i + 3).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("await"));
    if awaited_immediately {
        return;
    }
    let Some(line) = tokens.get(i).map(|t| t.line) else { return };
    if facts.allowed("blocking", line).is_some() {
        return;
    }
    let span_end = facts
        .async_spans
        .iter()
        .filter(|s| s.contains(i))
        .map(|s| s.end)
        .min()
        .unwrap_or(tokens.len());
    let region_end = guard_live_region(tokens, i, span_end);
    // Scan for a `.await` after the acquisition within the live region.
    let mut k = i + 3;
    while k < region_end.min(span_end) {
        let is_await = tokens.get(k).is_some_and(|t| t.is_punct(b'.'))
            && tokens.get(k + 1).is_some_and(|t| t.is_ident("await"));
        if is_await {
            findings.push(finding(
                path,
                line,
                "synchronous lock guard held across `.await`; scope the guard so it drops \
                 first, or use `tokio::sync`",
            ));
            return;
        }
        k += 1;
    }
}

/// End (exclusive) of the token region in which the guard acquired by
/// the zero-argument `.lock()`/`.read()`/`.write()` call at `i` is live,
/// bounded by `limit`. Token-level heuristic over Rust's
/// temporary-lifetime rules, shared by L2 (guard across `.await`) and
/// L6 (nested acquisition while held):
///
/// * `let g = m.lock();` (incl. `.unwrap()`/`.expect(…)`/`.await`
///   chains) — guard named, lives to the end of the enclosing block,
/// * `let x = m.lock().clone();` — guard is a temporary dropped at the
///   end of the `let` statement,
/// * `for`/`match`/`if let`/`while let` scrutinee temporaries live
///   through the body (and `else` chain),
/// * plain `if`/`while` condition temporaries drop at the body `{`,
/// * anything else — temporary dropped at the end of its statement.
pub(crate) fn guard_live_region(tokens: &[Token], i: usize, limit: usize) -> usize {
    let stmt_start = statement_start(tokens, i);
    let first = tokens.get(stmt_start);
    if first.is_some_and(|t| t.is_ident("let")) && binds_guard(tokens, i) {
        // A named guard lives to the end of the enclosing block — unless
        // it is dropped or shadowed, which the heuristic does not track;
        // annotate those sites.
        enclosing_block_end(tokens, i, limit)
    } else if first.is_some_and(|t| t.is_ident("let")) {
        expression_statement_end(tokens, i, limit)
    } else {
        match first.map(|t| t.text.as_str()) {
            Some("for") | Some("match") | Some("loop") => {
                block_statement_end(tokens, stmt_start, limit)
            }
            Some("if") | Some("while") => {
                let is_let = tokens.get(stmt_start + 1).is_some_and(|t| t.is_ident("let"));
                if is_let {
                    block_statement_end(tokens, stmt_start, limit)
                } else {
                    first_depth0_brace(tokens, stmt_start, limit)
                }
            }
            _ => expression_statement_end(tokens, i, limit),
        }
    }
}

/// Is the value bound by a `let … = ….lock…;` statement the guard itself?
/// True for `….lock();`, the std form `….lock().unwrap();` /
/// `….lock().expect("…");`, and the async form `….lock().await;` —
/// false when further method calls consume the guard before binding
/// (`….lock().clone();`).
fn binds_guard(tokens: &[Token], i: usize) -> bool {
    if tokens.get(i + 3).is_some_and(|t| t.is_punct(b';')) {
        return true;
    }
    let via_await = tokens.get(i + 3).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("await"))
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(b';'));
    if via_await {
        return true;
    }
    let via_unwrap = tokens.get(i + 3).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
    if via_unwrap {
        // Skip the call's argument list to see if `;` follows.
        let open = i + 5;
        if tokens.get(open).is_some_and(|t| t.is_punct(b'(')) {
            let mut depth = 0i32;
            let mut j = open;
            while let Some(token) = tokens.get(j) {
                match token.kind {
                    Kind::Punct(b'(') => depth += 1,
                    Kind::Punct(b')') => {
                        depth -= 1;
                        if depth == 0 {
                            return tokens.get(j + 1).is_some_and(|t| t.is_punct(b';'));
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    false
}

/// Walks backwards from `i` to the first token of the enclosing
/// statement (just past the previous `;`, `{`, `}` or depth-0 `,`).
/// Shared with L6, which uses it to find the binding a lock type
/// annotates.
pub(crate) fn statement_start(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        let Some(token) = tokens.get(j - 1) else { break };
        match token.kind {
            Kind::Punct(b')') | Kind::Punct(b']') => depth += 1,
            Kind::Punct(b'(') | Kind::Punct(b'[') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            Kind::Punct(b';') | Kind::Punct(b'{') | Kind::Punct(b'}') if depth == 0 => {
                return j;
            }
            Kind::Punct(b',') if depth == 0 => return j,
            _ => {}
        }
        j -= 1;
    }
    j
}

/// End (exclusive) of a block-shaped statement (`for`/`match`/`if let`):
/// the matching `}` of its first depth-0 brace, following `else` chains.
fn block_statement_end(tokens: &[Token], stmt_start: usize, limit: usize) -> usize {
    let mut open = first_depth0_brace(tokens, stmt_start, limit);
    loop {
        let Some(close) = tokens
            .get(open)
            .filter(|t| t.is_punct(b'{'))
            .and(Some(open))
            .and_then(|o| matching_brace(tokens, o))
        else {
            return limit;
        };
        // `} else {` / `} else if … {` continues the chain.
        if tokens.get(close + 1).is_some_and(|t| t.is_ident("else")) {
            open = first_depth0_brace(tokens, close + 2, limit);
            continue;
        }
        return (close + 1).min(limit);
    }
}

/// Index of the first `{` at paren/bracket depth 0 at or after `start`.
fn first_depth0_brace(tokens: &[Token], start: usize, limit: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = start;
    while j < limit {
        match tokens.get(j).map(|t| t.kind) {
            Some(Kind::Punct(b'(')) => paren += 1,
            Some(Kind::Punct(b')')) => paren -= 1,
            Some(Kind::Punct(b'[')) => bracket += 1,
            Some(Kind::Punct(b']')) => bracket -= 1,
            Some(Kind::Punct(b'{')) if paren == 0 && bracket == 0 => return j,
            Some(_) => {}
            None => break,
        }
        j += 1;
    }
    limit
}

/// End (exclusive) of a plain expression statement containing token `i`:
/// the `;` at all-zero depth, or where the enclosing block closes.
fn expression_statement_end(tokens: &[Token], i: usize, limit: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut j = i;
    while j < limit {
        match tokens.get(j).map(|t| t.kind) {
            Some(Kind::Punct(b'(')) => paren += 1,
            Some(Kind::Punct(b')')) => {
                paren -= 1;
                if paren < 0 {
                    return j;
                }
            }
            Some(Kind::Punct(b'[')) => bracket += 1,
            Some(Kind::Punct(b']')) => {
                bracket -= 1;
                if bracket < 0 {
                    return j;
                }
            }
            Some(Kind::Punct(b'{')) => brace += 1,
            Some(Kind::Punct(b'}')) => {
                brace -= 1;
                if brace < 0 {
                    return j;
                }
            }
            Some(Kind::Punct(b';')) if paren == 0 && bracket == 0 && brace == 0 => {
                return j + 1;
            }
            Some(Kind::Punct(b',')) if paren == 0 && bracket == 0 && brace == 0 => {
                return j + 1;
            }
            Some(_) => {}
            None => break,
        }
        j += 1;
    }
    limit
}

/// End (exclusive) of the block enclosing token `i` — where a `let`-bound
/// guard is dropped.
fn enclosing_block_end(tokens: &[Token], i: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < limit {
        match tokens.get(j).map(|t| t.kind) {
            Some(Kind::Punct(b'{')) => depth += 1,
            Some(Kind::Punct(b'}')) => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Some(_) => {}
            None => break,
        }
        j += 1;
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::spans::analyze;

    fn run(source: &str) -> Vec<Finding> {
        let lexed = lex(source);
        let facts = analyze(&lexed);
        let mut findings = Vec::new();
        check("test.rs", &lexed.tokens, &facts, &mut findings);
        findings
    }

    #[test]
    fn thread_sleep_in_async_flagged() {
        assert_eq!(run("async fn f() { std::thread::sleep(d); }").len(), 1);
        assert_eq!(run("async fn f() { thread::sleep(d); }").len(), 1);
    }

    #[test]
    fn tokio_sleep_ok_everywhere() {
        assert!(run("async fn f() { tokio::time::sleep(d).await; }").is_empty());
        assert!(run("fn f() { std::thread::sleep(d); }").is_empty());
    }

    #[test]
    fn block_on_in_async_flagged() {
        assert_eq!(run("async fn f() { rt.block_on(fut); }").len(), 1);
    }

    #[test]
    fn std_net_in_async_flagged_tokio_net_ok() {
        assert_eq!(run("async fn f() { let s = std::net::TcpStream::connect(a); }").len(), 1);
        assert!(run("async fn f() { let s = tokio::net::TcpStream::connect(a).await; }").is_empty());
    }

    #[test]
    fn tokio_mutex_lock_await_ok() {
        assert!(run("async fn f() { let g = m.lock().await; g.push(1); h().await; }").is_empty());
    }

    #[test]
    fn sync_guard_across_await_in_same_statement_flagged() {
        assert_eq!(run("async fn f() { state.lock().push(fetch().await); }").len(), 1);
    }

    #[test]
    fn let_bound_guard_across_await_flagged() {
        let source = "async fn f() { let g = state.lock(); g.push(1); fetch().await; }";
        assert_eq!(run(source).len(), 1);
    }

    #[test]
    fn guard_dropped_before_await_ok() {
        let source = "async fn f() { { let g = state.lock(); g.push(1); } fetch().await; }";
        assert!(run(source).is_empty());
    }

    #[test]
    fn plain_if_condition_guard_ok() {
        let source = "async fn f() { if state.lock().is_empty() { fetch().await; } }";
        assert!(run(source).is_empty());
    }

    #[test]
    fn for_loop_scrutinee_guard_flagged() {
        let source = "async fn f() { for x in state.lock().iter() { handle(x).await; } }";
        assert_eq!(run(source).len(), 1);
    }

    #[test]
    fn cloned_out_of_guard_before_await_ok() {
        let source = "async fn f() { let v = state.lock().clone(); handle(v).await; }";
        assert!(run(source).is_empty());
    }

    #[test]
    fn std_mutex_unwrap_bound_guard_flagged() {
        let source = "async fn f() { let g = state.lock().unwrap(); fetch().await; }";
        assert_eq!(run(source).len(), 1);
    }

    #[test]
    fn sync_code_not_checked() {
        assert!(run("fn f() { let g = state.lock(); g.push(1); }").is_empty());
    }

    #[test]
    fn write_with_args_not_a_guard() {
        assert!(run("async fn f() { sock.write(&buf); flush().await; }").is_empty());
    }
}

//! Structural analysis over the token stream: attributes, `#[cfg(test)]`
//! spans, async-fn/async-block spans, and `lint:allow` annotations.

use crate::lexer::{Comment, Kind, Lexed, Token};

/// A half-open token-index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Span {
    /// True when token index `i` is inside the span.
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }
}

/// Per-file structural facts the passes consume.
#[derive(Debug)]
pub struct FileFacts {
    /// Token indices that are inside attribute brackets (`#[…]`).
    pub in_attr: Vec<bool>,
    /// Token indices inside test-only code (`#[cfg(test)]` items,
    /// `#[test]`/`#[tokio::test]` functions).
    pub in_test: Vec<bool>,
    /// Spans of async fn bodies and async blocks.
    pub async_spans: Vec<Span>,
    /// `lint:allow(category)` annotations by line, with their reason.
    pub allows: Vec<Allow>,
    /// File-wide `lint:allow-file(category)` annotations.
    pub file_allows: Vec<Allow>,
}

/// One `lint:allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The category in parentheses (`panic`, `indexing`, `blocking`,
    /// `metric`).
    pub category: String,
    /// The justification text after the closing parenthesis.
    pub reason: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Whether any finding actually used this annotation.
    pub used: std::cell::Cell<bool>,
}

/// Extracts all structural facts from a lexed file.
pub fn analyze(lexed: &Lexed) -> FileFacts {
    let tokens = &lexed.tokens;
    let in_attr = mark_attrs(tokens);
    let in_test = mark_test_spans(tokens, &in_attr);
    let async_spans = find_async_spans(tokens);
    let (allows, file_allows) = collect_allows(&lexed.comments);
    FileFacts { in_attr, in_test, async_spans, allows, file_allows }
}

/// Marks every token that sits inside `#[…]` / `#![…]` attribute brackets
/// (including the `#`, `!` and the brackets themselves).
fn mark_attrs(tokens: &[Token]) -> Vec<bool> {
    let mut marks = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let is_hash = tokens.get(i).is_some_and(|t| t.is_punct(b'#'));
        if is_hash {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct(b'!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct(b'[')) {
                // Find the matching `]`.
                let mut depth = 0i32;
                let mut k = j;
                while let Some(token) = tokens.get(k) {
                    match token.kind {
                        Kind::Punct(b'[') => depth += 1,
                        Kind::Punct(b']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for slot in marks.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
                    *slot = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    marks
}

/// Is the attribute starting at token `hash` (a `#`) a test marker —
/// `#[cfg(test)]`, `#[cfg(any(test, …))]`, `#[test]`, `#[tokio::test]`,
/// `#[proptest]` and friends?
fn attr_is_test(tokens: &[Token], hash: usize, attr_end: usize) -> bool {
    let mut idents: Vec<&str> = Vec::new();
    for token in tokens.iter().take(attr_end).skip(hash) {
        if token.kind == Kind::Ident {
            idents.push(token.text.as_str());
        }
    }
    match idents.first() {
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        Some(&"test") | Some(&"proptest") => true,
        Some(_) => idents.last().is_some_and(|w| *w == "test"),
        None => false,
    }
}

/// Marks tokens belonging to items annotated with a test attribute.
fn mark_test_spans(tokens: &[Token], in_attr: &[bool]) -> Vec<bool> {
    let mut marks = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let is_hash = tokens.get(i).is_some_and(|t| t.is_punct(b'#'))
            && in_attr.get(i).copied().unwrap_or(false);
        if is_hash {
            // Find end of this attribute.
            let mut end = i + 1;
            while end < tokens.len() && in_attr.get(end).copied().unwrap_or(false) {
                // Stop at the next `#` that starts a new attribute.
                if tokens.get(end).is_some_and(|t| t.is_punct(b'#')) {
                    break;
                }
                end += 1;
            }
            if attr_is_test(tokens, i, end) {
                // Skip any further attributes, then mark the item.
                let mut j = end;
                while j < tokens.len() && in_attr.get(j).copied().unwrap_or(false) {
                    j += 1;
                }
                let item_end = item_body_end(tokens, j);
                for slot in marks.iter_mut().take(item_end.min(tokens.len())).skip(i) {
                    *slot = true;
                }
                i = item_end;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    marks
}

/// Given the first token of an item, returns one past its last token:
/// either the matching `}` of its first depth-0 brace block, or the first
/// depth-0 `;`.
fn item_body_end(tokens: &[Token], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut i = start;
    while let Some(token) = tokens.get(i) {
        match token.kind {
            Kind::Punct(b'(') => paren += 1,
            Kind::Punct(b')') => paren -= 1,
            Kind::Punct(b'[') => bracket += 1,
            Kind::Punct(b']') => bracket -= 1,
            Kind::Punct(b';') if paren == 0 && bracket == 0 => return i + 1,
            Kind::Punct(b'{') if paren == 0 && bracket == 0 => {
                return matching_brace(tokens, i).map_or(tokens.len(), |close| close + 1);
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(token) = tokens.get(i) {
        match token.kind {
            Kind::Punct(b'{') => depth += 1,
            Kind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Finds the body spans of `async fn`s and `async`/`async move` blocks.
fn find_async_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("async")) {
            let mut j = i + 1;
            // `async unsafe fn`, `async move`, `async fn`, `async {`.
            while tokens.get(j).is_some_and(|t| t.is_ident("unsafe") || t.is_ident("move")) {
                j += 1;
            }
            let body_open = if tokens.get(j).is_some_and(|t| t.is_ident("fn")) {
                // Scan to the fn body `{` (depth 0 w.r.t. parens/brackets).
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut k = j;
                loop {
                    match tokens.get(k).map(|t| t.kind) {
                        Some(Kind::Punct(b'(')) => paren += 1,
                        Some(Kind::Punct(b')')) => paren -= 1,
                        Some(Kind::Punct(b'[')) => bracket += 1,
                        Some(Kind::Punct(b']')) => bracket -= 1,
                        Some(Kind::Punct(b'{')) if paren == 0 && bracket == 0 => break Some(k),
                        Some(Kind::Punct(b';')) if paren == 0 && bracket == 0 => break None,
                        Some(_) => {}
                        None => break None,
                    }
                    k += 1;
                }
            } else if tokens.get(j).is_some_and(|t| t.is_punct(b'{')) {
                Some(j)
            } else {
                None
            };
            if let Some(open) = body_open {
                if let Some(close) = matching_brace(tokens, open) {
                    spans.push(Span { start: open, end: close + 1 });
                    // Do not skip past the body: nested async blocks
                    // inside get their own spans.
                }
            }
        }
        i += 1;
    }
    spans
}

/// Parses `lint:allow(category) reason` / `lint:allow-file(category)
/// reason` annotations out of comments.
fn collect_allows(comments: &[Comment]) -> (Vec<Allow>, Vec<Allow>) {
    let mut allows = Vec::new();
    let mut file_allows = Vec::new();
    for comment in comments {
        // Only plain `//` comments carry annotations: doc comments
        // (`///`, `//!`) merely *talk about* the syntax.
        let is_plain = comment.text.starts_with("//")
            && !comment.text.starts_with("///")
            && !comment.text.starts_with("//!");
        let trimmed = comment.text.trim_start_matches('/').trim_start();
        if !is_plain || !trimmed.starts_with("lint:allow") {
            continue;
        }
        let mut rest = trimmed;
        while let Some(pos) = rest.find("lint:allow") {
            let after = rest.get(pos + "lint:allow".len()..).unwrap_or_default();
            let (is_file, after) = match after.strip_prefix("-file") {
                Some(stripped) => (true, stripped),
                None => (false, after),
            };
            let Some(after) = after.strip_prefix('(') else {
                rest = rest.get(pos + 1..).unwrap_or_default();
                continue;
            };
            let Some(close) = after.find(')') else {
                rest = rest.get(pos + 1..).unwrap_or_default();
                continue;
            };
            let category = after.get(..close).unwrap_or_default().trim().to_string();
            let reason = after
                .get(close + 1..)
                .unwrap_or_default()
                .trim_matches(|c: char| c.is_whitespace() || c == ':' || c == '-')
                .trim()
                .to_string();
            let allow =
                Allow { category, reason, line: comment.line, used: std::cell::Cell::new(false) };
            if is_file {
                file_allows.push(allow);
            } else {
                allows.push(allow);
            }
            rest = after.get(close..).unwrap_or_default();
        }
    }
    (allows, file_allows)
}

impl FileFacts {
    /// Looks up an allow annotation covering `category` at `line`: a
    /// same-line or previous-line `lint:allow`, or a file-wide
    /// `lint:allow-file`. Marks the annotation used. Returns the reason,
    /// or `None` when the site is not allowed.
    pub fn allowed(&self, category: &str, line: u32) -> Option<&Allow> {
        let site = self
            .allows
            .iter()
            .find(|a| a.category == category && (a.line == line || a.line + 1 == line));
        if let Some(allow) = site {
            allow.used.set(true);
            return Some(allow);
        }
        if let Some(allow) = self.file_allows.iter().find(|a| a.category == category) {
            allow.used.set(true);
            return Some(allow);
        }
        None
    }

    /// Annotations whose reason is missing or too short to be a real
    /// justification.
    pub fn unjustified(&self) -> impl Iterator<Item = &Allow> {
        self.allows.iter().chain(self.file_allows.iter()).filter(|a| a.reason.len() < 10)
    }

    /// True when token `i` is inside an async body.
    pub fn in_async(&self, i: usize) -> bool {
        self.async_spans.iter().any(|s| s.contains(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn attrs_are_marked() {
        let lexed = lex("#[derive(Debug)] struct S { a: [u8; 4] }");
        let facts = analyze(&lexed);
        let derive = lexed.tokens.iter().position(|t| t.is_ident("derive"));
        let s = lexed.tokens.iter().position(|t| t.is_ident("S"));
        assert!(derive.and_then(|i| facts.in_attr.get(i).copied()).unwrap_or(false));
        assert!(!s.and_then(|i| facts.in_attr.get(i).copied()).unwrap_or(true));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let source = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        let lexed = lex(source);
        let facts = analyze(&lexed);
        let unwrap = lexed.tokens.iter().position(|t| t.is_ident("unwrap"));
        let lib = lexed.tokens.iter().position(|t| t.is_ident("lib"));
        assert!(unwrap.and_then(|i| facts.in_test.get(i).copied()).unwrap_or(false));
        assert!(!lib.and_then(|i| facts.in_test.get(i).copied()).unwrap_or(true));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let source = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let lexed = lex(source);
        let facts = analyze(&lexed);
        let unwrap = lexed.tokens.iter().position(|t| t.is_ident("unwrap"));
        assert!(!unwrap.and_then(|i| facts.in_test.get(i).copied()).unwrap_or(true));
    }

    #[test]
    fn tokio_test_fn_is_marked() {
        let source = "#[tokio::test]\nasync fn t() { x.unwrap(); }\nfn prod() {}";
        let lexed = lex(source);
        let facts = analyze(&lexed);
        let unwrap = lexed.tokens.iter().position(|t| t.is_ident("unwrap"));
        let prod = lexed.tokens.iter().position(|t| t.is_ident("prod"));
        assert!(unwrap.and_then(|i| facts.in_test.get(i).copied()).unwrap_or(false));
        assert!(!prod.and_then(|i| facts.in_test.get(i).copied()).unwrap_or(true));
    }

    #[test]
    fn async_fn_and_block_spans() {
        let source = "async fn f() { g().await; } fn sync_fn() {} async move { h().await }";
        let lexed = lex(source);
        let facts = analyze(&lexed);
        assert_eq!(facts.async_spans.len(), 2);
        let g = lexed.tokens.iter().position(|t| t.is_ident("g"));
        let sync_fn = lexed.tokens.iter().position(|t| t.is_ident("sync_fn"));
        assert!(g.is_some_and(|i| facts.in_async(i)));
        assert!(!sync_fn.is_some_and(|i| facts.in_async(i)));
    }

    #[test]
    fn allow_annotations() {
        let source = "// lint:allow(panic) the mask is validated at construction time\nlet x = v[0];\n// lint:allow-file(indexing) hot-path kernel, bounds checked in ctor\n";
        let lexed = lex(source);
        let facts = analyze(&lexed);
        assert!(facts.allowed("panic", 2).is_some());
        assert!(facts.allowed("indexing", 40).is_some());
        assert!(facts.allowed("blocking", 2).is_none());
        assert_eq!(facts.unjustified().count(), 0);
    }

    #[test]
    fn unjustified_allow_detected() {
        let lexed = lex("// lint:allow(panic) ok\nlet x = 1;");
        let facts = analyze(&lexed);
        assert_eq!(facts.unjustified().count(), 1);
    }
}

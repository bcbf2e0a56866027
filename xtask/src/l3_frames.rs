//! Pass L3 — frame-tag exhaustiveness for the wire protocol.
//!
//! Cross-checks three places that must agree for every `Frame` variant:
//!
//! * `frame.rs` — the `tag()` match (variant → tag byte) and the
//!   `KNOWN_TAGS` catalog constant,
//! * `codec.rs` — the `encode` match (every variant has an encode arm),
//! * `codec.rs` — the `decode_inner` match (every tag byte has a decode
//!   arm and no decode arm handles an undeclared tag).
//!
//! A variant with an encode arm but no decode arm (or vice versa) is a
//! silent wire-compat break; this pass turns it into a CI failure.

use crate::lexer::{Kind, Token};
use crate::spans::matching_brace;
use crate::Finding;

/// Variant→tag pairs and declared tags extracted from `frame.rs`.
struct FrameDecl {
    /// `(variant name, tag byte, line)` from the `tag()` match.
    tags: Vec<(String, u64, u32)>,
    /// Tag bytes listed in `KNOWN_TAGS`.
    known_tags: Vec<u64>,
    /// Whether a `KNOWN_TAGS` constant exists at all.
    has_known_tags: bool,
}

/// Runs the pass given the lexed tokens of `frame.rs` and `codec.rs`.
pub fn check(
    frame_path: &str,
    frame_tokens: &[Token],
    codec_path: &str,
    codec_tokens: &[Token],
    findings: &mut Vec<Finding>,
) {
    let decl = parse_frame_decl(frame_tokens);
    if decl.tags.is_empty() {
        findings.push(l3(frame_path, 1, "could not find the `fn tag` variant→byte match"));
        return;
    }

    // Tag bytes must be unique.
    for (idx, (variant, tag, line)) in decl.tags.iter().enumerate() {
        let duplicate = decl.tags.iter().take(idx).find(|(_, other, _)| other == tag);
        if let Some((first_variant, _, _)) = duplicate {
            findings.push(l3(
                frame_path,
                *line,
                &format!("tag {tag:#04x} assigned to both `{first_variant}` and `{variant}`"),
            ));
        }
    }

    // KNOWN_TAGS must exist and list exactly the declared tags.
    if !decl.has_known_tags {
        findings.push(l3(
            frame_path,
            1,
            "missing `KNOWN_TAGS` constant cataloguing every frame tag byte",
        ));
    } else {
        for (variant, tag, line) in &decl.tags {
            if !decl.known_tags.contains(tag) {
                findings.push(l3(
                    frame_path,
                    *line,
                    &format!("tag {tag:#04x} (`{variant}`) is not listed in `KNOWN_TAGS`"),
                ));
            }
        }
        for tag in &decl.known_tags {
            if !decl.tags.iter().any(|(_, t, _)| t == tag) {
                findings.push(l3(
                    frame_path,
                    1,
                    &format!("`KNOWN_TAGS` lists {tag:#04x} which no variant maps to in `tag()`"),
                ));
            }
        }
    }

    // Every variant must have an encode arm…
    let encode_variants = match_variants_in_fn(codec_tokens, "encode");
    for (variant, _, line) in &decl.tags {
        if !encode_variants.iter().any(|(v, _)| v == variant) {
            findings.push(l3(
                codec_path,
                *line,
                &format!("`Frame::{variant}` has no arm in the `encode` match"),
            ));
        }
    }

    // …and every tag byte a decode arm.
    let decode_tags = decode_arm_tags(codec_tokens);
    if decode_tags.is_empty() {
        findings.push(l3(codec_path, 1, "could not find the `decode_inner` tag match"));
        return;
    }
    for (variant, tag, line) in &decl.tags {
        if !decode_tags.iter().any(|(t, _)| t == tag) {
            findings.push(l3(
                codec_path,
                *line,
                &format!("tag {tag:#04x} (`Frame::{variant}`) has no arm in the decode match"),
            ));
        }
    }
    for (tag, line) in &decode_tags {
        if !decl.tags.iter().any(|(_, t, _)| t == tag) {
            findings.push(l3(
                codec_path,
                *line,
                &format!("decode arm for {tag:#04x} has no matching variant in `tag()`"),
            ));
        }
    }

    // `ConfigUpdate` is epoch-gated (make-before-break reconfiguration):
    // an encode or decode arm that drops the `epoch` field silently
    // reverts brokers to last-writer-wins config installs, so every
    // codec site must carry it.
    if let Some((_, tag, line)) = decl.tags.iter().find(|(v, _, _)| v == "ConfigUpdate") {
        if encode_arm_mentions(codec_tokens, "ConfigUpdate", "epoch") == Some(false) {
            findings.push(l3(
                codec_path,
                *line,
                "`Frame::ConfigUpdate` encode arm does not carry the `epoch` field",
            ));
        }
        if decode_arm_mentions(codec_tokens, *tag, "epoch") == Some(false) {
            findings.push(l3(
                codec_path,
                *line,
                "`Frame::ConfigUpdate` decode arm does not read the `epoch` field",
            ));
        }
    }
}

/// Whether `Frame::<variant>`'s arm in the `encode` match mentions
/// `ident` anywhere (pattern destructure or body). Returns `None` when
/// the arm does not exist — the missing-encode-arm check reports that
/// case.
fn encode_arm_mentions(tokens: &[Token], variant: &str, ident: &str) -> Option<bool> {
    let (open, close) = fn_body(tokens, "encode")?;
    let mut i = open;
    while i < close {
        let is_frame_path = tokens.get(i).is_some_and(|t| t.is_ident("Frame"))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident(variant));
        if is_frame_path {
            // Scan this arm: up to the next `Frame::` path (the next
            // arm's pattern) or the end of the match body.
            let mut j = i + 4;
            while j < close {
                if tokens.get(j).is_some_and(|t| t.is_ident("Frame")) {
                    return Some(false);
                }
                if tokens.get(j).is_some_and(|t| t.is_ident(ident)) {
                    return Some(true);
                }
                j += 1;
            }
            return Some(false);
        }
        i += 1;
    }
    None
}

/// Whether the decode arm for `tag` mentions `ident`. The arm spans
/// from its `0xNN =>` pattern to the next number-pattern arm at the
/// same brace depth (numbers inside nested braces — e.g. an inner
/// `match` on a mode byte — do not terminate the scan). Returns `None`
/// when no arm matches the tag — the missing-decode-arm check reports
/// that case.
fn decode_arm_mentions(tokens: &[Token], tag: u64, ident: &str) -> Option<bool> {
    let (open, close) = fn_body(tokens, "decode_inner").or_else(|| fn_body(tokens, "decode"))?;
    let mut i = open;
    while i < close {
        let is_arm = tokens.get(i).is_some_and(|t| t.kind == Kind::Number)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'='))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(b'>'))
            && tokens.get(i).and_then(|t| parse_int(&t.text)) == Some(tag);
        if is_arm {
            let mut depth = 0i32;
            let mut j = i + 3;
            while j < close {
                let Some(token) = tokens.get(j) else { break };
                match token.kind {
                    Kind::Punct(b'{') | Kind::Punct(b'(') | Kind::Punct(b'[') => depth += 1,
                    Kind::Punct(b'}') | Kind::Punct(b')') | Kind::Punct(b']') => depth -= 1,
                    Kind::Number if depth == 0 => {
                        // The next same-level arm's tag pattern.
                        let next_is_arrow = tokens.get(j + 1).is_some_and(|t| t.is_punct(b'='))
                            && tokens.get(j + 2).is_some_and(|t| t.is_punct(b'>'));
                        if next_is_arrow {
                            return Some(false);
                        }
                    }
                    Kind::Ident if token.text == ident => return Some(true),
                    _ => {}
                }
                j += 1;
            }
            return Some(false);
        }
        i += 1;
    }
    None
}

fn l3(path: &str, line: u32, message: &str) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        pass: "L3",
        category: "frame",
        message: message.to_string(),
    }
}

/// Parses an integer literal (`0x0D`, `13`, `0b1`, with `_`/suffixes).
fn parse_int(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let lower = cleaned.to_ascii_lowercase();
    let (digits, radix) = if let Some(rest) = lower.strip_prefix("0x") {
        (rest, 16)
    } else if let Some(rest) = lower.strip_prefix("0o") {
        (rest, 8)
    } else if let Some(rest) = lower.strip_prefix("0b") {
        (rest, 2)
    } else {
        (lower.as_str(), 10)
    };
    // Strip a type suffix (`u8`, `u64`, …).
    let digits = digits.split(['u', 'i']).next().unwrap_or_default();
    u64::from_str_radix(digits, radix).ok()
}

/// Finds `fn name` and returns its body token range.
fn fn_body(tokens: &[Token], name: &str) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("fn"))
            && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
        {
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut j = i + 2;
            while let Some(token) = tokens.get(j) {
                match token.kind {
                    Kind::Punct(b'(') => paren += 1,
                    Kind::Punct(b')') => paren -= 1,
                    Kind::Punct(b'[') => bracket += 1,
                    Kind::Punct(b']') => bracket -= 1,
                    Kind::Punct(b'{') if paren == 0 && bracket == 0 => {
                        let close = matching_brace(tokens, j)?;
                        return Some((j, close));
                    }
                    Kind::Punct(b';') if paren == 0 && bracket == 0 => return None,
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

/// Extracts the frame declaration facts from `frame.rs` tokens.
fn parse_frame_decl(tokens: &[Token]) -> FrameDecl {
    let mut decl = FrameDecl { tags: Vec::new(), known_tags: Vec::new(), has_known_tags: false };
    if let Some((open, close)) = fn_body(tokens, "tag") {
        let mut i = open;
        while i < close {
            // `Frame :: Variant … => NUMBER`
            let is_frame_path = tokens.get(i).is_some_and(|t| t.is_ident("Frame"))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(b':'));
            if is_frame_path {
                if let Some(variant) = tokens.get(i + 3).filter(|t| t.kind == Kind::Ident) {
                    // Scan forward to the `=>` of this arm.
                    let mut j = i + 4;
                    while j < close {
                        let is_arrow = tokens.get(j).is_some_and(|t| t.is_punct(b'='))
                            && tokens.get(j + 1).is_some_and(|t| t.is_punct(b'>'));
                        if is_arrow {
                            if let Some(number) =
                                tokens.get(j + 2).filter(|t| t.kind == Kind::Number)
                            {
                                if let Some(value) = parse_int(&number.text) {
                                    decl.tags.push((variant.text.clone(), value, variant.line));
                                }
                            }
                            break;
                        }
                        j += 1;
                    }
                    i = j;
                }
            }
            i += 1;
        }
    }
    // `KNOWN_TAGS` constant: numbers between the initializer `=` and the
    // terminating `;` (the `;` and length inside the `[u8; N]` type
    // annotation must not be confused with them).
    if let Some(start) = tokens.iter().position(|t| t.is_ident("KNOWN_TAGS")) {
        decl.has_known_tags = true;
        let mut bracket = 0i32;
        let mut i = start;
        // Skip the type annotation up to the depth-0 `=`.
        while let Some(token) = tokens.get(i) {
            match token.kind {
                Kind::Punct(b'[') => bracket += 1,
                Kind::Punct(b']') => bracket -= 1,
                Kind::Punct(b'=') if bracket == 0 => break,
                Kind::Punct(b';') if bracket == 0 => return decl,
                _ => {}
            }
            i += 1;
        }
        while let Some(token) = tokens.get(i) {
            if token.is_punct(b';') && bracket == 0 {
                break;
            }
            match token.kind {
                Kind::Punct(b'[') => bracket += 1,
                Kind::Punct(b']') => bracket -= 1,
                Kind::Number => {
                    if let Some(value) = parse_int(&token.text) {
                        decl.known_tags.push(value);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    decl
}

/// `Frame::Variant` patterns inside `fn name`'s body, with lines.
fn match_variants_in_fn(tokens: &[Token], name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    if let Some((open, close)) = fn_body(tokens, name) {
        let mut i = open;
        while i < close {
            let is_frame_path = tokens.get(i).is_some_and(|t| t.is_ident("Frame"))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct(b':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(b':'));
            if is_frame_path {
                if let Some(variant) = tokens.get(i + 3).filter(|t| t.kind == Kind::Ident) {
                    if !variants.iter().any(|(v, _)| v == &variant.text) {
                        variants.push((variant.text.clone(), variant.line));
                    }
                }
                i += 3;
            }
            i += 1;
        }
    }
    variants
}

/// Tag-byte literals used as match-arm patterns (`0xNN => …`) in the
/// decode function. Only arms at the top level of the decode `match`
/// count: an arm body may itself match on payload bytes (a mode
/// discriminant, say), and those inner numeric arms are not tags.
fn decode_arm_tags(tokens: &[Token]) -> Vec<(u64, u32)> {
    let mut tags = Vec::new();
    let body = fn_body(tokens, "decode_inner").or_else(|| fn_body(tokens, "decode"));
    if let Some((open, close)) = body {
        // The tag match is the first `match` in the body; its arms live
        // at brace depth 1 relative to its opening brace.
        let mut i = open;
        while i < close && !tokens.get(i).is_some_and(|t| t.is_ident("match")) {
            i += 1;
        }
        while i < close && !tokens.get(i).is_some_and(|t| t.is_punct(b'{')) {
            i += 1;
        }
        let mut depth = 0i32;
        while i < close {
            let token = match tokens.get(i) {
                Some(token) => token,
                None => break,
            };
            if token.is_punct(b'{') {
                depth += 1;
            } else if token.is_punct(b'}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            let is_arm = depth == 1
                && token.kind == Kind::Number
                && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'='))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(b'>'));
            if is_arm {
                if let Some(value) = parse_int(&token.text) {
                    tags.push((value, token.line));
                }
            }
            i += 1;
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const FRAME_OK: &str = "impl Frame { pub fn tag(&self) -> u8 { match self { Frame::A { .. } => 0x01, Frame::B(_) => 0x02, } } }\npub const KNOWN_TAGS: [u8; 2] = [0x01, 0x02];";
    const CODEC_OK: &str = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), Frame::B(y) => go(y), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), 0x02 => b(), other => err(other), } }";

    fn run(frame_src: &str, codec_src: &str) -> Vec<Finding> {
        let frame = lex(frame_src);
        let codec = lex(codec_src);
        let mut findings = Vec::new();
        check("frame.rs", &frame.tokens, "codec.rs", &codec.tokens, &mut findings);
        findings
    }

    #[test]
    fn consistent_decl_passes() {
        assert!(run(FRAME_OK, CODEC_OK).is_empty());
    }

    #[test]
    fn missing_decode_arm_flagged() {
        let codec = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), Frame::B(y) => go(y), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), other => err(other), } }";
        let findings = run(FRAME_OK, codec);
        assert_eq!(findings.len(), 1);
        assert!(findings.first().is_some_and(|f| f.message.contains("no arm in the decode")));
    }

    #[test]
    fn missing_encode_arm_flagged() {
        let codec = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), 0x02 => b(), other => err(other), } }";
        let findings = run(FRAME_OK, codec);
        assert_eq!(findings.len(), 1);
        assert!(findings.first().is_some_and(|f| f.message.contains("encode")));
    }

    #[test]
    fn orphan_decode_arm_flagged() {
        let codec = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), Frame::B(y) => go(y), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), 0x02 => b(), 0x7F => mystery(), other => err(other), } }";
        let findings = run(FRAME_OK, codec);
        assert_eq!(findings.len(), 1);
        assert!(findings.first().is_some_and(|f| f.message.contains("0x7f")));
    }

    #[test]
    fn duplicate_tag_flagged() {
        let frame = "impl Frame { pub fn tag(&self) -> u8 { match self { Frame::A { .. } => 0x01, Frame::B(_) => 0x01, } } }\npub const KNOWN_TAGS: [u8; 2] = [0x01, 0x01];";
        let codec = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), Frame::B(y) => go(y), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), other => err(other), } }";
        let findings = run(frame, codec);
        assert!(findings.iter().any(|f| f.message.contains("assigned to both")));
    }

    #[test]
    fn missing_known_tags_flagged() {
        let frame =
            "impl Frame { pub fn tag(&self) -> u8 { match self { Frame::A { .. } => 0x01, } } }";
        let codec = "fn encode(f: &Frame) { match f { Frame::A { x } => go(x), } }\nfn decode_inner(tag: u8) { match tag { 0x01 => a(), other => err(other), } }";
        let findings = run(frame, codec);
        assert!(findings.iter().any(|f| f.message.contains("KNOWN_TAGS")));
    }

    #[test]
    fn stale_known_tags_flagged() {
        let frame = "impl Frame { pub fn tag(&self) -> u8 { match self { Frame::A { .. } => 0x01, } } }\npub const KNOWN_TAGS: [u8; 2] = [0x01, 0x02];";
        let findings = run(frame, CODEC_OK);
        assert!(findings.iter().any(|f| f.message.contains("no variant maps")));
    }

    const FRAME_CONFIG: &str = "impl Frame { pub fn tag(&self) -> u8 { match self { Frame::ConfigUpdate { .. } => 0x0A, } } }\npub const KNOWN_TAGS: [u8; 1] = [0x0A];";

    #[test]
    fn epochless_config_update_arms_flagged() {
        // Neither the encode arm nor the decode arm touches `epoch`; the
        // decode arm's inner match on the mode byte must not fool the
        // arm-boundary scan.
        let codec = "fn encode(f: &Frame) { match f { Frame::ConfigUpdate { topic, mask, mode } => go(topic, mask, mode), } }\nfn decode_inner(tag: u8) { match tag { 0x0A => { let mode = match r.u8() { 0 => d(), 1 => rt(), }; cfg(mode) } other => err(other), } }";
        let findings = run(FRAME_CONFIG, codec);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("encode arm does not carry")));
        assert!(findings.iter().any(|f| f.message.contains("decode arm does not read")));
    }

    #[test]
    fn epoch_carrying_config_update_passes() {
        let codec = "fn encode(f: &Frame) { match f { Frame::ConfigUpdate { topic, mask, mode, epoch } => go(topic, mask, mode, epoch), } }\nfn decode_inner(tag: u8) { match tag { 0x0A => { let mode = match r.u8() { 0 => d(), 1 => rt(), }; let epoch = r.u64(); cfg(mode, epoch) } other => err(other), } }";
        let findings = run(FRAME_CONFIG, codec);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn decode_only_epoch_omission_flagged() {
        // The encode side carries the field; only decode dropped it.
        let codec = "fn encode(f: &Frame) { match f { Frame::ConfigUpdate { topic, mask, mode, epoch } => go(topic, mask, mode, epoch), } }\nfn decode_inner(tag: u8) { match tag { 0x0A => cfg(r.u32()), other => err(other), } }";
        let findings = run(FRAME_CONFIG, codec);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings.first().is_some_and(|f| f.message.contains("decode arm does not read")));
    }
}

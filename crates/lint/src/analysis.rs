//! Shared per-file analysis: function spans, `// lint:` directive parsing, and the
//! hot/warm region map that the rule modules consult.
//!
//! Directive grammar (inside a line comment):
//!
//! ```text
//! // lint: hot-path
//! // lint: hot-path, warm-path
//! // lint: warm-path, allow(indexing): slots are sized to the band count
//! // lint: allow(panic): poisoned lock is already a crash
//! //! lint: hot-path
//! ```
//!
//! A directive with region markers (`hot-path` / `warm-path`) attaches to the next
//! `fn` item and covers its whole body; its `allow(...)` clause, if any, covers the
//! same region. An `//! lint:` inner-doc directive covers the entire file. A
//! directive with only an `allow(...)` clause is line-scoped: trailing on a line of
//! code it covers that line, standalone it covers the next line of code. Every
//! `allow` requires a non-empty justification after the closing `): `.

use std::collections::HashMap;

use crate::diagnostics::{AllowSite, Rule, Violation};
use crate::lexer::{Token, TokenKind};

/// Rule ids accepted inside `allow(...)`.
pub const ALLOW_RULES: &[&str] = &["panic", "indexing", "alloc"];

/// A contiguous marked region (one function body, or the whole file).
#[derive(Debug, Clone)]
pub struct Region {
    pub hot: bool,
    pub warm: bool,
    pub start_line: usize,
    pub end_line: usize,
    pub allows: Vec<String>,
}

/// One `fn` item: its name and body token range.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token indices of the body `{` and `}`; `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    pub start_line: usize,
    pub end_line: usize,
}

/// Everything the rules need to know about one source file.
pub struct FileAnalysis {
    pub path: String,
    pub tokens: Vec<Token>,
    pub fns: Vec<FnSpan>,
    pub regions: Vec<Region>,
    /// Line number → rule ids allowed on that line.
    pub line_allows: HashMap<usize, Vec<String>>,
    pub allow_sites: Vec<AllowSite>,
    /// Directive-syntax violations found while building the analysis.
    pub violations: Vec<Violation>,
}

#[derive(Debug, PartialEq)]
struct ParsedDirective {
    file_level: bool,
    hot: bool,
    warm: bool,
    allows: Vec<String>,
    justification: String,
}

impl FileAnalysis {
    pub fn build(path: &str, tokens: Vec<Token>) -> FileAnalysis {
        let fns = function_spans(&tokens);
        let last_line = tokens.last().map(|t| t.line).unwrap_or(1);
        let mut analysis = FileAnalysis {
            path: path.to_string(),
            tokens,
            fns,
            regions: Vec::new(),
            line_allows: HashMap::new(),
            allow_sites: Vec::new(),
            violations: Vec::new(),
        };
        analysis.attach_directives(last_line);
        analysis
    }

    fn attach_directives(&mut self, last_line: usize) {
        for idx in 0..self.tokens.len() {
            let (text, line) = match &self.tokens[idx].kind {
                TokenKind::LineComment(text) => (text.clone(), self.tokens[idx].line),
                _ => continue,
            };
            let parsed = match parse_directive(&text) {
                None => continue,
                Some(Err(message)) => {
                    self.violation(line, message);
                    continue;
                }
                Some(Ok(parsed)) => parsed,
            };
            if parsed.file_level {
                self.add_region(parsed, 1, last_line, line, true);
            } else if parsed.hot || parsed.warm {
                match self.fns.iter().find(|f| f.fn_idx > idx).cloned() {
                    Some(f) => self.add_region(parsed, f.start_line, f.end_line, line, false),
                    None => self.violation(
                        line,
                        "hot-path/warm-path directive is not followed by a function".to_string(),
                    ),
                }
            } else {
                // Allow-only directive: line-scoped.
                let trailing = self.tokens[..idx]
                    .iter()
                    .rev()
                    .take_while(|t| t.line == line)
                    .any(|t| !t.is_comment());
                let target = if trailing {
                    Some(line)
                } else {
                    self.tokens[idx + 1..]
                        .iter()
                        .find(|t| !t.is_comment())
                        .map(|t| t.line)
                };
                match target {
                    Some(target) => {
                        self.allow_sites.push(AllowSite {
                            path: self.path.clone(),
                            line: target,
                            rules: parsed.allows.clone(),
                            justification: parsed.justification,
                            region: false,
                        });
                        self.line_allows
                            .entry(target)
                            .or_default()
                            .extend(parsed.allows);
                    }
                    None => self.violation(line, "allow directive attaches to no code".to_string()),
                }
            }
        }
    }

    fn add_region(
        &mut self,
        parsed: ParsedDirective,
        start_line: usize,
        end_line: usize,
        directive_line: usize,
        _file_level: bool,
    ) {
        if !parsed.allows.is_empty() {
            self.allow_sites.push(AllowSite {
                path: self.path.clone(),
                line: directive_line,
                rules: parsed.allows.clone(),
                justification: parsed.justification,
                region: true,
            });
        }
        self.regions.push(Region {
            hot: parsed.hot,
            warm: parsed.warm,
            start_line,
            end_line,
            allows: parsed.allows,
        });
    }

    fn violation(&mut self, line: usize, message: String) {
        self.violations.push(Violation {
            rule: Rule::Directive,
            path: self.path.clone(),
            line,
            message,
        });
    }

    pub fn in_hot(&self, line: usize) -> bool {
        self.regions
            .iter()
            .any(|r| r.hot && r.start_line <= line && line <= r.end_line)
    }

    pub fn in_warm(&self, line: usize) -> bool {
        self.regions
            .iter()
            .any(|r| r.warm && r.start_line <= line && line <= r.end_line)
    }

    /// True when `rule` is allowed at `line` by a line-scoped or region-scoped allow.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        if let Some(rules) = self.line_allows.get(&line) {
            if rules.iter().any(|r| r == rule) {
                return true;
            }
        }
        self.regions.iter().any(|r| {
            r.start_line <= line && line <= r.end_line && r.allows.iter().any(|a| a == rule)
        })
    }

    /// Innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| matches!(f.body, Some((open, close)) if open <= idx && idx <= close))
            .max_by_key(|f| f.fn_idx)
    }
}

fn parse_directive(text: &str) -> Option<Result<ParsedDirective, String>> {
    let mut rest = text.trim_start();
    let file_level = if let Some(after) = rest.strip_prefix('!') {
        rest = after.trim_start();
        true
    } else {
        false
    };
    let body = rest.strip_prefix("lint:")?.trim();
    let mut parsed = ParsedDirective {
        file_level,
        hot: false,
        warm: false,
        allows: Vec::new(),
        justification: String::new(),
    };
    let markers_part = match body.find("allow(") {
        Some(at) => {
            let after = &body[at + "allow(".len()..];
            let close = match after.find(')') {
                Some(c) => c,
                None => return Some(Err("unterminated allow(...) clause".to_string())),
            };
            for rule in after[..close].split(',') {
                let rule = rule.trim();
                if rule.is_empty() {
                    continue;
                }
                if !ALLOW_RULES.contains(&rule) {
                    return Some(Err(format!(
                        "unknown allow rule `{rule}` (expected one of: {})",
                        ALLOW_RULES.join(", ")
                    )));
                }
                parsed.allows.push(rule.to_string());
            }
            if parsed.allows.is_empty() {
                return Some(Err("allow() lists no rules".to_string()));
            }
            let tail = after[close + 1..].trim_start();
            match tail.strip_prefix(':') {
                Some(j) if !j.trim().is_empty() => parsed.justification = j.trim().to_string(),
                _ => {
                    return Some(Err(
                        "allow(...) requires a non-empty `: justification`".to_string()
                    ))
                }
            }
            &body[..at]
        }
        None => body,
    };
    for marker in markers_part.split(',') {
        match marker.trim() {
            "" => continue,
            "hot-path" => parsed.hot = true,
            "warm-path" => parsed.warm = true,
            other => {
                return Some(Err(format!(
                    "unknown marker `{other}` (expected hot-path, warm-path, or allow(...))"
                )))
            }
        }
    }
    if !parsed.hot && !parsed.warm && parsed.allows.is_empty() {
        return Some(Err("empty lint directive".to_string()));
    }
    Some(Ok(parsed))
}

/// Previous non-comment token index before `idx`.
pub fn prev_code(tokens: &[Token], idx: usize) -> Option<usize> {
    tokens[..idx].iter().rposition(|t| !t.is_comment())
}

/// Next non-comment token index after `idx`.
pub fn next_code(tokens: &[Token], idx: usize) -> Option<usize> {
    tokens[idx + 1..]
        .iter()
        .position(|t| !t.is_comment())
        .map(|off| idx + 1 + off)
}

/// Token index of the `}` matching the `{` at `open_idx`.
pub fn matching_close_brace(tokens: &[Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, token) in tokens[open_idx..].iter().enumerate() {
        if token.is_punct('{') {
            depth += 1;
        } else if token.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(open_idx + off);
            }
        }
    }
    None
}

/// Scans the token stream for `fn` items and brace-matches their bodies.
///
/// A `fn` keyword counts as an item only when followed by an identifier, which
/// excludes `fn(...)` pointer types. Nested functions get their own span.
pub fn function_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for idx in 0..tokens.len() {
        if tokens[idx].ident() != Some("fn") {
            continue;
        }
        let name_idx = match next_code(tokens, idx) {
            Some(n) => n,
            None => continue,
        };
        let name = match tokens[name_idx].ident() {
            Some(name) => name.to_string(),
            None => continue,
        };
        // Find the body `{` (or a `;` for bodyless declarations) at bracket depth 0
        // relative to the signature.
        let mut depth = 0isize;
        let mut cursor = name_idx + 1;
        let mut body = None;
        let mut end_line = tokens[idx].line;
        while cursor < tokens.len() {
            let t = &tokens[cursor];
            match &t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    let close = matching_close_brace(tokens, cursor);
                    if let Some(close) = close {
                        end_line = tokens[close].line;
                        body = Some((cursor, close));
                    }
                    break;
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            cursor += 1;
        }
        spans.push(FnSpan {
            name,
            fn_idx: idx,
            body,
            start_line: tokens[idx].line,
            end_line,
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze(src: &str) -> FileAnalysis {
        FileAnalysis::build("test.rs", lex(src))
    }

    #[test]
    fn marker_attaches_to_next_fn_body() {
        let a = analyze(
            "fn before() {}\n\
             // lint: hot-path\n\
             fn target(x: usize) {\n\
                 body();\n\
             }\n\
             fn after() {}\n",
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.regions.len(), 1);
        assert!(a.in_hot(3) && a.in_hot(5));
        assert!(!a.in_hot(1) && !a.in_hot(6));
        assert!(!a.in_warm(4));
    }

    #[test]
    fn file_level_directive_covers_everything() {
        let a = analyze("//! lint: warm-path\nfn f() { g(); }\n");
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.in_warm(1) && a.in_warm(2));
    }

    #[test]
    fn region_allow_covers_the_function() {
        let a = analyze(
            "// lint: hot-path, allow(indexing): slots sized at submit\n\
             fn f(v: &[f32]) {\n\
                 touch(v);\n\
             }\n",
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.allowed(3, "indexing"));
        assert!(!a.allowed(3, "panic"));
        assert_eq!(a.allow_sites.len(), 1);
        assert!(a.allow_sites[0].region);
    }

    #[test]
    fn line_allow_trailing_and_standalone() {
        let a = analyze(
            "fn f() {\n\
                 a(); // lint: allow(panic): checked above\n\
                 // lint: allow(alloc): one-time setup\n\
                 b();\n\
             }\n",
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.allowed(2, "panic"));
        assert!(a.allowed(4, "alloc"));
        assert!(!a.allowed(4, "panic"));
    }

    #[test]
    fn malformed_directives_are_violations() {
        for src in [
            "// lint: hot-path, allow(panic):\nfn f() {}\n", // empty justification
            "// lint: allow(frobnicate): x\nfn f() {}\n",    // unknown rule
            "// lint: cold-path\nfn f() {}\n",               // unknown marker
            "// lint:\nfn f() {}\n",                         // empty
            "// lint: hot-path\n",                           // no following fn
        ] {
            let a = analyze(src);
            assert_eq!(a.violations.len(), 1, "expected violation for {src:?}");
            assert_eq!(a.violations[0].rule, Rule::Directive);
        }
    }

    #[test]
    fn function_spans_skip_fn_pointer_types() {
        let spans = function_spans(&lex("type F = fn(usize) -> f32;\nfn real() {}\n"));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "real");
        assert_eq!(spans[0].start_line, 2);
    }

    #[test]
    fn bodyless_trait_fn_ends_at_semicolon() {
        let spans = function_spans(&lex("trait T {\n    fn decl(&self) -> usize;\n}\n"));
        assert_eq!(spans.len(), 1);
        assert!(spans[0].body.is_none());
        assert_eq!(spans[0].end_line, 2);
    }
}

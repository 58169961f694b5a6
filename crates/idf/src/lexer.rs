//! Lexer for the IDF surface syntax.

use std::fmt;

/// Tokens of the IDF language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Keyword.
    Kw(Kw),
    /// Symbol.
    Sym(Sy),
}

/// Keywords.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Kw {
    Field,
    Method,
    Returns,
    Requires,
    Ensures,
    Var,
    New,
    Inhale,
    Exhale,
    Assert,
    If,
    Else,
    While,
    Invariant,
    Call,
    Old,
    Perm,
    Acc,
    True,
    False,
    Null,
    TyInt,
    TyBool,
    TyRef,
    Write,
}

/// Symbols.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Sy {
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Dot,
    Assign, // :=
    EqEq,   // ==
    Ne,     // !=
    Le,
    Ge,
    Lt,
    Gt,
    Plus,
    Minus,
    Star,
    Slash,
    AndAnd,
    OrOr,
    Implies, // ==>
    Bang,
    Question,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{}", s),
            Tok::Int(n) => write!(f, "{}", n),
            Tok::Kw(k) => write!(f, "{:?}", k),
            Tok::Sym(s) => write!(f, "{:?}", s),
        }
    }
}

/// A token as the parser reads it: an identifier borrows its text
/// from the source, so only identifiers the AST keeps are allocated.
/// Its `Debug` text matches [`Tok`]'s, which parse diagnostics quote.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Token<'s> {
    Ident(&'s str),
    Int(i64),
    Kw(Kw),
    Sym(Sy),
}

impl From<Token<'_>> for Tok {
    fn from(t: Token<'_>) -> Tok {
        match t {
            Token::Ident(s) => Tok::Ident(s.to_string()),
            Token::Int(n) => Tok::Int(n),
            Token::Kw(k) => Tok::Kw(k),
            Token::Sym(s) => Tok::Sym(s),
        }
    }
}

/// A lexing error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    /// Byte position.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

fn keyword(s: &str) -> Option<Kw> {
    Some(match s {
        "field" => Kw::Field,
        "method" => Kw::Method,
        "returns" => Kw::Returns,
        "requires" => Kw::Requires,
        "ensures" => Kw::Ensures,
        "var" => Kw::Var,
        "new" => Kw::New,
        "inhale" => Kw::Inhale,
        "exhale" => Kw::Exhale,
        "assert" => Kw::Assert,
        "if" => Kw::If,
        "else" => Kw::Else,
        "while" => Kw::While,
        "invariant" => Kw::Invariant,
        "call" => Kw::Call,
        "old" => Kw::Old,
        "perm" => Kw::Perm,
        "acc" => Kw::Acc,
        "true" => Kw::True,
        "false" => Kw::False,
        "null" => Kw::Null,
        "Int" => Kw::TyInt,
        "Bool" => Kw::TyBool,
        "Ref" => Kw::TyRef,
        "write" => Kw::Write,
        _ => return None,
    })
}

/// Tokenizes IDF source. `//` line comments and `/* */` block comments
/// are skipped.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters or malformed literals.
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    Ok(lex_spanned(src)?.into_iter().map(|(t, _)| t).collect())
}

/// Tokenizes IDF source keeping each token's starting byte offset —
/// the spans that let the parser report source positions (line and
/// column) in its diagnostics.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters or malformed literals.
pub fn lex_spanned(src: &str) -> Result<Vec<(Tok, usize)>, LexError> {
    Ok(tokens(src)?
        .into_iter()
        .map(|(t, pos)| (t.into(), pos))
        .collect())
}

/// [`lex_spanned`] with identifiers borrowed from `src`.
pub(crate) fn tokens(src: &str) -> Result<Vec<(Token<'_>, usize)>, LexError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        let tok_start = i;
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated comment".into(),
                        });
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '(' => {
                out.push((Token::Sym(Sy::LParen), tok_start));
                i += 1;
            }
            ')' => {
                out.push((Token::Sym(Sy::RParen), tok_start));
                i += 1;
            }
            '{' => {
                out.push((Token::Sym(Sy::LBrace), tok_start));
                i += 1;
            }
            '}' => {
                out.push((Token::Sym(Sy::RBrace), tok_start));
                i += 1;
            }
            ',' => {
                out.push((Token::Sym(Sy::Comma), tok_start));
                i += 1;
            }
            ';' => {
                out.push((Token::Sym(Sy::Semi), tok_start));
                i += 1;
            }
            '.' => {
                out.push((Token::Sym(Sy::Dot), tok_start));
                i += 1;
            }
            '?' => {
                out.push((Token::Sym(Sy::Question), tok_start));
                i += 1;
            }
            ':' if b.get(i + 1) == Some(&b'=') => {
                out.push((Token::Sym(Sy::Assign), tok_start));
                i += 2;
            }
            ':' => {
                out.push((Token::Sym(Sy::Colon), tok_start));
                i += 1;
            }
            '=' if b.get(i + 1) == Some(&b'=') && b.get(i + 2) == Some(&b'>') => {
                out.push((Token::Sym(Sy::Implies), tok_start));
                i += 3;
            }
            '=' if b.get(i + 1) == Some(&b'=') => {
                out.push((Token::Sym(Sy::EqEq), tok_start));
                i += 2;
            }
            '!' if b.get(i + 1) == Some(&b'=') => {
                out.push((Token::Sym(Sy::Ne), tok_start));
                i += 2;
            }
            '!' => {
                out.push((Token::Sym(Sy::Bang), tok_start));
                i += 1;
            }
            '<' if b.get(i + 1) == Some(&b'=') => {
                out.push((Token::Sym(Sy::Le), tok_start));
                i += 2;
            }
            '<' => {
                out.push((Token::Sym(Sy::Lt), tok_start));
                i += 1;
            }
            '>' if b.get(i + 1) == Some(&b'=') => {
                out.push((Token::Sym(Sy::Ge), tok_start));
                i += 2;
            }
            '>' => {
                out.push((Token::Sym(Sy::Gt), tok_start));
                i += 1;
            }
            '+' => {
                out.push((Token::Sym(Sy::Plus), tok_start));
                i += 1;
            }
            '-' => {
                out.push((Token::Sym(Sy::Minus), tok_start));
                i += 1;
            }
            '*' => {
                out.push((Token::Sym(Sy::Star), tok_start));
                i += 1;
            }
            '/' => {
                out.push((Token::Sym(Sy::Slash), tok_start));
                i += 1;
            }
            '&' if b.get(i + 1) == Some(&b'&') => {
                out.push((Token::Sym(Sy::AndAnd), tok_start));
                i += 2;
            }
            '|' if b.get(i + 1) == Some(&b'|') => {
                out.push((Token::Sym(Sy::OrOr), tok_start));
                i += 2;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n = src[start..i].parse::<i64>().map_err(|_| LexError {
                    pos: start,
                    message: "integer literal out of range".into(),
                })?;
                out.push((Token::Int(n), tok_start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() {
                    let c = b[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                match keyword(text) {
                    Some(k) => out.push((Token::Kw(k), tok_start)),
                    None => out.push((Token::Ident(text), tok_start)),
                }
            }
            other => {
                // Every arm above consumes whole ASCII characters, so
                // `i` is a character boundary: name the character, not
                // its first byte.
                let ch = src.get(i..).and_then(|rest| rest.chars().next());
                let ch = ch.unwrap_or(other);
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character {:?}", ch),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_method_header() {
        let toks = lex("method m(a: Ref) returns (r: Int) requires acc(a.val)").unwrap();
        assert_eq!(toks[0], Tok::Kw(Kw::Method));
        assert!(toks.contains(&Tok::Kw(Kw::Acc)));
        assert!(toks.contains(&Tok::Sym(Sy::Dot)));
    }

    #[test]
    fn spanned_tokens_own_their_identifiers() {
        assert_eq!(
            lex_spanned("method m(ab: Ref)").unwrap(),
            vec![
                (Tok::Kw(Kw::Method), 0),
                (Tok::Ident("m".into()), 7),
                (Tok::Sym(Sy::LParen), 8),
                (Tok::Ident("ab".into()), 9),
                (Tok::Sym(Sy::Colon), 11),
                (Tok::Kw(Kw::TyRef), 13),
                (Tok::Sym(Sy::RParen), 16),
            ]
        );
    }

    #[test]
    fn compound_symbols() {
        let toks = lex(":= == ==> != <= < && ||").unwrap();
        use Sy::*;
        assert_eq!(
            toks,
            vec![
                Tok::Sym(Assign),
                Tok::Sym(EqEq),
                Tok::Sym(Implies),
                Tok::Sym(Ne),
                Tok::Sym(Le),
                Tok::Sym(Lt),
                Tok::Sym(AndAnd),
                Tok::Sym(OrOr),
            ]
        );
    }

    #[test]
    fn comments() {
        let toks = lex("1 // x\n 2 /* y */ 3").unwrap();
        assert_eq!(toks, vec![Tok::Int(1), Tok::Int(2), Tok::Int(3)]);
    }

    #[test]
    fn errors() {
        assert!(lex("#").is_err());
        assert!(lex("/* open").is_err());
    }
}

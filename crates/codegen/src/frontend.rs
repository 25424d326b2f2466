//! A small textual front-end for stencil loop nests.
//!
//! PerforAD has no parser ("the caller supplies a high-level description…
//! automating this remains future work", §3.1) but is explicitly designed
//! for pluggable front-ends. This module provides one: a compact DSL that
//! parses straight into the loop-nest IR.
//!
//! ```text
//! for i in 1 .. n-1 {
//!     r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]);
//! }
//! ```

use perforad_core::{Bound, CoreError, LoopNest, Statement};
use perforad_symbolic::{Access, Expr, Func, Idx, Node, Symbol};
use std::fmt;

/// Parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    /// A name, borrowed from the source.
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Assign,
    AddAssign,
    DotDot,
    KwFor,
    KwIn,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    toks: Vec<(usize, Tok<'a>)>,
}

fn lex(src: &str) -> Result<Vec<(usize, Tok<'_>)>, ParseError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        toks: Vec::new(),
    };
    while lx.pos < lx.src.len() {
        let c = lx.src[lx.pos] as char;
        let start = lx.pos;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                lx.pos += 1;
            }
            '#' => {
                // comment to end of line
                while lx.pos < lx.src.len() && lx.src[lx.pos] != b'\n' {
                    lx.pos += 1;
                }
            }
            '+' => {
                if lx.src.get(lx.pos + 1) == Some(&b'=') {
                    lx.toks.push((start, Tok::AddAssign));
                    lx.pos += 2;
                } else {
                    lx.toks.push((start, Tok::Plus));
                    lx.pos += 1;
                }
            }
            '-' => {
                lx.toks.push((start, Tok::Minus));
                lx.pos += 1;
            }
            '*' => {
                lx.toks.push((start, Tok::Star));
                lx.pos += 1;
            }
            '/' => {
                lx.toks.push((start, Tok::Slash));
                lx.pos += 1;
            }
            '^' => {
                lx.toks.push((start, Tok::Caret));
                lx.pos += 1;
            }
            '(' => {
                lx.toks.push((start, Tok::LParen));
                lx.pos += 1;
            }
            ')' => {
                lx.toks.push((start, Tok::RParen));
                lx.pos += 1;
            }
            '[' => {
                lx.toks.push((start, Tok::LBracket));
                lx.pos += 1;
            }
            ']' => {
                lx.toks.push((start, Tok::RBracket));
                lx.pos += 1;
            }
            '{' => {
                lx.toks.push((start, Tok::LBrace));
                lx.pos += 1;
            }
            '}' => {
                lx.toks.push((start, Tok::RBrace));
                lx.pos += 1;
            }
            ',' => {
                lx.toks.push((start, Tok::Comma));
                lx.pos += 1;
            }
            ';' => {
                lx.toks.push((start, Tok::Semi));
                lx.pos += 1;
            }
            '=' => {
                lx.toks.push((start, Tok::Assign));
                lx.pos += 1;
            }
            '.' => {
                if lx.src.get(lx.pos + 1) == Some(&b'.') {
                    lx.toks.push((start, Tok::DotDot));
                    lx.pos += 2;
                } else {
                    return Err(ParseError {
                        pos: start,
                        message: "unexpected `.`".into(),
                    });
                }
            }
            '0'..='9' => {
                let mut end = lx.pos;
                let mut is_float = false;
                while end < lx.src.len() {
                    let ch = lx.src[end] as char;
                    if ch.is_ascii_digit() {
                        end += 1;
                    } else if ch == '.' && lx.src.get(end + 1) != Some(&b'.') && !is_float {
                        is_float = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&lx.src[lx.pos..end]).unwrap();
                if is_float {
                    lx.toks.push((
                        start,
                        Tok::Float(text.parse().map_err(|_| ParseError {
                            pos: start,
                            message: format!("bad float `{text}`"),
                        })?),
                    ));
                } else {
                    lx.toks.push((
                        start,
                        Tok::Int(text.parse().map_err(|_| ParseError {
                            pos: start,
                            message: format!("bad integer `{text}`"),
                        })?),
                    ));
                }
                lx.pos = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = lx.pos;
                while end < lx.src.len() {
                    let ch = lx.src[end] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&lx.src[lx.pos..end]).unwrap();
                let tok = match text {
                    "for" => Tok::KwFor,
                    "in" => Tok::KwIn,
                    _ => Tok::Ident(text),
                };
                lx.toks.push((start, tok));
                lx.pos = end;
            }
            other => {
                return Err(ParseError {
                    pos: start,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(lx.toks)
}

struct Parser<'a> {
    toks: Vec<(usize, Tok<'a>)>,
    k: usize,
    /// Length of the source: where an error at end of input points.
    end: usize,
    /// Every name met so far, one shared symbol each.
    symbols: Vec<Symbol>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            k: 0,
            end: src.len(),
            symbols: Vec::new(),
        })
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.k).map(|(_, t)| t)
    }

    /// The symbol named `name`: every occurrence shares one.
    fn symbol(&mut self, name: &str) -> Symbol {
        if let Some(s) = self.symbols.iter().find(|s| s.name() == name) {
            return s.clone();
        }
        let s = Symbol::new(name);
        self.symbols.push(s.clone());
        s
    }

    fn pos(&self) -> usize {
        self.toks.get(self.k).map_or(self.end, |(p, _)| *p)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek().copied();
        self.k += 1;
        t
    }

    fn expect(&mut self, t: &Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.k += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            pos: self.pos(),
            message,
        }
    }

    // expr := term (("+"|"-") term)*
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.k += 1;
                    acc = acc + self.term()?;
                }
                Some(Tok::Minus) => {
                    self.k += 1;
                    acc = acc - self.term()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    // term := factor (("*"|"/") factor)*
    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.factor()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.k += 1;
                    acc = acc * self.factor()?;
                }
                Some(Tok::Slash) => {
                    self.k += 1;
                    acc = acc / self.factor()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    // factor := "-" factor | power
    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Tok::Minus) {
            self.k += 1;
            return Ok(-self.factor()?);
        }
        self.power()
    }

    // power := atom ("^" factor)?
    fn power(&mut self) -> Result<Expr, ParseError> {
        let base = self.atom()?;
        if self.peek() == Some(&Tok::Caret) {
            self.k += 1;
            let e = self.factor()?;
            return Ok(base.pow(e));
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::int(v)),
            Some(Tok::Float(v)) => Ok(Expr::float(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::LParen) => {
                    self.k += 1;
                    let mut args = vec![self.expr()?];
                    while self.peek() == Some(&Tok::Comma) {
                        self.k += 1;
                        args.push(self.expr()?);
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                    let f = match name {
                        "sin" => Func::Sin,
                        "cos" => Func::Cos,
                        "tan" => Func::Tan,
                        "exp" => Func::Exp,
                        "ln" | "log" => Func::Ln,
                        "sqrt" => Func::Sqrt,
                        "abs" => Func::Abs,
                        "sign" => Func::Sign,
                        "tanh" => Func::Tanh,
                        "max" => Func::Max,
                        "min" => Func::Min,
                        other => return Err(self.err(format!("unknown function `{other}`"))),
                    };
                    if args.len() != f.arity() {
                        return Err(self.err(format!(
                            "`{name}` takes {} argument(s), got {}",
                            f.arity(),
                            args.len()
                        )));
                    }
                    Ok(Expr::call(f, args))
                }
                Some(Tok::LBracket) => {
                    let mut indices = Vec::new();
                    while self.peek() == Some(&Tok::LBracket) {
                        self.k += 1;
                        let e = self.expr()?;
                        self.expect(&Tok::RBracket, "`]`")?;
                        indices.push(self.to_idx(&e)?);
                    }
                    Ok(Expr::access(Access::new(self.symbol(name), indices)))
                }
                _ => Ok(Expr::sym(self.symbol(name))),
            },
            _ => Err(self.err("expected expression".into())),
        }
    }

    /// Convert a parsed expression to an affine index.
    fn to_idx(&self, e: &Expr) -> Result<Idx, ParseError> {
        expr_to_idx(e).ok_or_else(|| self.err(format!("index `{e}` is not affine")))
    }
}

/// Convert an expression to an affine [`Idx`] if possible.
pub fn expr_to_idx(e: &Expr) -> Option<Idx> {
    match e.node() {
        Node::Num(perforad_symbolic::Number::Int(i)) => Some(Idx::constant(*i)),
        Node::Num(_) => None,
        Node::Sym(s) => Some(Idx::sym(s.clone())),
        Node::Add(ts) => {
            let mut acc = Idx::constant(0);
            for t in ts {
                acc = acc + expr_to_idx(t)?;
            }
            Some(acc)
        }
        Node::Mul(fs) => {
            // must be int * sym
            if fs.len() == 2 {
                if let (Some(c), Node::Sym(s)) = (fs[0].as_int(), fs[1].node()) {
                    return Some(Idx::scaled(s.clone(), c));
                }
            }
            None
        }
        _ => None,
    }
}

/// Parse a standalone expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if p.k != p.toks.len() {
        return Err(p.err("trailing input after expression".into()));
    }
    Ok(e)
}

/// Parse a stencil loop nest:
///
/// ```text
/// for i in 1 .. n-1, j in 1 .. n-1 {
///     r[i][j] = u[i-1][j] + u[i+1][j] - 2.0*u[i][j];
/// }
/// ```
pub fn parse_stencil(src: &str) -> Result<LoopNest, ParseError> {
    let mut p = Parser::new(src)?;
    p.expect(&Tok::KwFor, "`for`")?;
    let mut counters: Vec<Symbol> = Vec::new();
    let mut bounds: Vec<Bound> = Vec::new();
    loop {
        let name = match p.next() {
            Some(Tok::Ident(n)) => n,
            _ => return Err(p.err("expected counter name".into())),
        };
        p.expect(&Tok::KwIn, "`in`")?;
        let lo = p.expr()?;
        let lo = p.to_idx(&lo)?;
        p.expect(&Tok::DotDot, "`..`")?;
        let hi = p.expr()?;
        let hi = p.to_idx(&hi)?;
        counters.push(p.symbol(name));
        bounds.push(Bound { lo, hi });
        if p.peek() == Some(&Tok::Comma) {
            p.k += 1;
            continue;
        }
        break;
    }
    p.expect(&Tok::LBrace, "`{`")?;
    let mut body = Vec::new();
    while p.peek() != Some(&Tok::RBrace) {
        let lhs = p.expr()?;
        let access = match lhs.node() {
            Node::Access(a) => a.clone(),
            _ => return Err(p.err("statement must assign to an array access".into())),
        };
        let increment = match p.next() {
            Some(Tok::Assign) => false,
            Some(Tok::AddAssign) => true,
            _ => return Err(p.err("expected `=` or `+=`".into())),
        };
        let rhs = p.expr()?;
        p.expect(&Tok::Semi, "`;`")?;
        body.push(if increment {
            Statement::add_assign(access, rhs)
        } else {
            Statement::assign(access, rhs)
        });
    }
    p.expect(&Tok::RBrace, "`}`")?;
    if p.k != p.toks.len() {
        return Err(p.err("trailing input after loop nest".into()));
    }
    let nest = LoopNest::new(counters, bounds, body);
    perforad_core::validate(&nest).map_err(|e: CoreError| ParseError {
        pos: 0,
        message: format!("invalid stencil: {e}"),
    })?;
    Ok(nest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let nest = parse_stencil(
            "for i in 1 .. n-1 {
                r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]);
            }",
        )
        .unwrap();
        assert_eq!(nest.rank(), 1);
        assert!(nest.is_gather());
        assert_eq!(format!("{}", nest.bounds[0]), "[1, n - 1]");
        // Round-trips through the builder-constructed equivalent.
        let i = Symbol::new("i");
        let (u, c) = (
            perforad_symbolic::Array::new("u"),
            perforad_symbolic::Array::new("c"),
        );
        use perforad_symbolic::ix;
        let expect = c.at(ix![&i])
            * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1]));
        assert_eq!(nest.body[0].rhs, expect);
    }

    #[test]
    fn parses_multidim_and_functions() {
        let nest = parse_stencil(
            "for i in 1 .. n-2, j in 1 .. m-2 {
                r[i][j] = max(u[i][j], 0) * (u[i+1][j] - u[i][j-1]) / 2.0;
            }",
        )
        .unwrap();
        assert_eq!(nest.rank(), 2);
        assert_eq!(nest.counters[1], Symbol::new("j"));
    }

    #[test]
    fn parses_powers_and_unary_minus() {
        let e = parse_expr("-u[i]^2 + 3").unwrap();
        let i = Symbol::new("i");
        let u = perforad_symbolic::Array::new("u");
        use perforad_symbolic::ix;
        assert_eq!(e, -(u.at(ix![&i]).powi(2)) + 3);
    }

    #[test]
    fn comments_and_whitespace() {
        let nest = parse_stencil(
            "# heat stencil
             for i in 1 .. n-2 {
                r[i] = u[i-1] + u[i+1]; # neighbours
             }",
        )
        .unwrap();
        assert_eq!(nest.body.len(), 1);
    }

    #[test]
    fn rejects_nonaffine_index() {
        let err = parse_stencil("for i in 1 .. n { r[i] = u[i*i]; }").unwrap_err();
        assert!(err.message.contains("not affine"), "{err}");
    }

    #[test]
    fn rejects_invalid_stencil_semantics() {
        // writes and reads r
        let err = parse_stencil("for i in 1 .. n-1 { r[i] = r[i-1]; }").unwrap_err();
        assert!(err.message.contains("invalid stencil"), "{err}");
    }

    #[test]
    fn rejects_unknown_function_and_arity() {
        assert!(parse_expr("frob(u[i])").is_err());
        assert!(parse_expr("max(u[i])").is_err());
    }

    #[test]
    fn scaled_counter_in_index_is_affine() {
        let e = parse_expr("u[2*i + 1]").unwrap();
        match e.node() {
            Node::Access(a) => {
                assert_eq!(a.indices[0].coeff(&Symbol::new("i")), 2);
                assert_eq!(a.indices[0].offset(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn increment_statements() {
        let nest = parse_stencil("for i in 1 .. n-1 { r[i] += u[i]; }").unwrap();
        assert_eq!(nest.body[0].op, perforad_core::AssignOp::AddAssign);
    }

    /// The three star stencils of the benchmark's `cold_compile` and an
    /// upwinded Burgers step (calls whose derivatives are comparisons).
    const CORPUS: [&str; 4] = [
        "for i in 1 .. n-2 { r[i] = c[i]*(0.5*u[i-1] - 1.25*u[i] + 0.75*u[i+1]); }",
        "for i in 1 .. n-2, j in 1 .. n-2 { r[i][j] = c[i][j]*(0.5*u[i-1][j] + 0.75*u[i+1][j] \
         + 1.5*u[i][j-1] + 0.25*u[i][j+1] - 1.25*u[i][j]); }",
        "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 { r[i][j][k] = c[i][j][k]*(\
         0.5*u[i-1][j][k] + 0.75*u[i+1][j][k] + 1.5*u[i][j-1][k] + 0.25*u[i][j+1][k] \
         + 1.75*u[i][j][k-1] + 0.625*u[i][j][k+1] - 1.25*u[i][j][k]); }",
        "for i in 1 .. n-2 { r[i] = u[i] - C*(max(u[i], 0)*(u[i] - u[i-1]) \
         + min(u[i], 0)*(u[i+1] - u[i])) + D*(u[i+1] + u[i-1] - 2.0*u[i]); }",
    ];

    fn xorshift64(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn no_zero_coefficient(nest: &LoopNest) {
        let check = |ix: &Idx| assert!(ix.terms().all(|(_, c)| c != 0), "zero stored in {ix:?}");
        for b in &nest.bounds {
            check(&b.lo);
            check(&b.hi);
        }
        for s in &nest.body {
            s.lhs.indices.iter().for_each(check);
            for a in perforad_symbolic::visit::accesses(&s.rhs) {
                a.indices.iter().for_each(check);
            }
        }
    }

    /// Seeded byte mutations of valid stencil texts: whatever the bytes,
    /// the parser returns; a refusal points inside the text; an accepted
    /// nest is one `validate` accepts, and the adjoint transformation
    /// answers it with nests or a `CoreError`, never a panic.
    #[test]
    fn mutated_stencils_never_panic_and_refusals_point_into_the_text() {
        use perforad_core::{validate, ActivityMap, AdjointOptions, BoundaryStrategy};
        let mut state = 0x5EED_0024_u64;
        let (mut accepted, mut refused, mut differentiated) = (0, 0, 0);
        for round in 0..10_000 {
            let mut bytes = CORPUS[round % 4].as_bytes().to_vec();
            for _ in 0..1 + round % 3 {
                let r = xorshift64(&mut state);
                let at = (r >> 8) as usize % bytes.len();
                match (r >> 1) % 5 {
                    // Low bits keep a digit a digit and a letter a letter
                    // more often than not; an inserted byte is one the
                    // grammar knows.
                    0 => bytes[at] ^= 1 << ((r >> 40) % 4),
                    1 => bytes.insert(at, CORPUS[3].as_bytes()[(r >> 40) as usize % 64]),
                    2 => drop(bytes.remove(at)),
                    3 => bytes.truncate(at),
                    _ => {
                        // A token of another text, spliced in.
                        let other = CORPUS[(r >> 40) as usize % 4];
                        let tokens: Vec<&str> = other.split(' ').collect();
                        let token = tokens[(r >> 48) as usize % tokens.len()];
                        bytes.splice(at..at, token.bytes());
                    }
                }
                if bytes.is_empty() {
                    break;
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let nest = match parse_stencil(&text) {
                Ok(nest) => nest,
                Err(e) => {
                    assert!(e.pos <= text.len(), "round {round}: {e} in {text:?}");
                    refused += 1;
                    continue;
                }
            };
            accepted += 1;
            assert_eq!(validate(&nest), Ok(()), "round {round}: {text:?}");
            no_zero_coefficient(&nest);
            let mut act = ActivityMap::new();
            for array in nest.outputs().into_iter().chain(nest.inputs()) {
                if array.name() != "c" {
                    act = act.with_suffixed(array);
                }
            }
            let strategy = [
                BoundaryStrategy::Disjoint,
                BoundaryStrategy::Guarded,
                BoundaryStrategy::Padded,
            ][round % 3];
            let opts = AdjointOptions::default().with_strategy(strategy);
            if let Ok(adj) = nest.adjoint(&act, &opts) {
                differentiated += 1;
                adj.nests.iter().for_each(no_zero_coefficient);
            }
        }
        // The mutations are neither all fatal nor all harmless.
        assert!(
            accepted > 100 && refused > 100 && differentiated > 100,
            "{accepted} / {refused} / {differentiated}"
        );
    }
}

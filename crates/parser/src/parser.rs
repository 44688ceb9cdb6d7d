//! Recursive-descent parser for `.td` programs.
//!
//! A program is a sequence of statements, each ended by `.`:
//!
//! ```text
//! base item/1.                          % declare a base relation
//! init item(w1).                        % initial database tuple
//! workflow(W) <- t1(W) * (t2(W) | t3(W)) * t4(W).
//! t1(W) <- ins.done(W, t1).            % rules
//! ready.                                % derived fact: ready <- ().
//! ?- workflow(w1).                      % goal to execute
//! ```
//!
//! The parser recovers at statement boundaries, so one file can report many
//! errors in a single pass.
//!
//! It reads the source in place: tokens are `Copy` slices of it, and a name
//! is interned only once its atom or term is complete — an atom's arguments
//! are checked as written first, then interned in one pass. A variable is
//! resolved by its text within its rule, goal or trigger, and the scope's
//! names are interned once, when it ends, for `var_names`.
//!
//! [`parse_goal`] checks each atom leaf against the program as the leaf is
//! completed, so it refuses a goal at its first invalid leaf; a predicate
//! name nothing has interned ([`Symbol::lookup`]) is refused before any of
//! its arguments is interned, and a refused goal interns nothing from that
//! leaf on.

use crate::error::{ParseError, ParseErrorKind, ParseErrors};
use crate::lexer::Lexer;
use crate::token::{Span, Tok, Token};
use td_core::event::{validate_trigger, EventPattern, Trigger};
use td_core::validate::{unknown_name, validate_goal, AtomLeaf};
use td_core::{Atom, Builtin, Goal, Program, Rule, Symbol, Term, Value};

/// A goal together with the names of its free variables (display names for
/// answer bindings).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedGoal {
    pub goal: Goal,
    pub var_names: Vec<Symbol>,
    pub span: Span,
}

/// The result of parsing a `.td` file.
#[derive(Clone, Debug)]
pub struct ParsedProgram {
    /// The validated program (base declarations + rules).
    pub program: Program,
    /// `init` statements: ground atoms to load into the initial database.
    pub init: Vec<Atom>,
    /// `?-` statements, in order.
    pub goals: Vec<ParsedGoal>,
    /// `on <pattern> do <goal>.` triggers, in declaration order.
    pub triggers: Vec<Trigger>,
}

/// Names that cannot be used as predicates or constants.
const RESERVED: &[&str] = &[
    "base", "init", "ins", "del", "iso", "not", "fail", "or", "is", "event", "on", "do",
];

/// Parse a complete `.td` source file.
pub fn parse_program(src: &str) -> Result<ParsedProgram, ParseErrors> {
    let tokens = Lexer::new(src)
        .tokenize()
        .map_err(|e| ParseErrors { errors: vec![e] })?;
    let mut p = Parser::new(tokens, None);
    p.program()
}

/// Parse a standalone goal (e.g. CLI input), validating it against
/// `program` leaf by leaf as it is read: the error is the one
/// `td_core::validate::validate_goal` gives for the first invalid leaf, and
/// a predicate name nothing has interned is refused before its arguments
/// are interned.
pub fn parse_goal(src: &str, program: &Program) -> Result<ParsedGoal, ParseErrors> {
    let one = |e: ParseError| ParseErrors { errors: vec![e] };
    let tokens = Lexer::new(src).tokenize().map_err(one)?;
    let mut p = Parser::new(tokens, Some(program));
    let mut scope = VarScope::default();
    let start = p.span();
    let goal = p.goal(&mut scope).map_err(one)?;
    // Optional trailing `.`
    if p.peek() == Tok::Dot {
        p.bump();
    }
    if p.peek() != Tok::Eof {
        return Err(one(p.unexpected("end of goal")));
    }
    Ok(ParsedGoal {
        goal,
        var_names: scope.finish(),
        span: start,
    })
}

/// Parse an event-ingestion request body: `name(arg, ...) [at <ts>]`.
///
/// This is the payload of the serve protocol's `event` verb and of
/// `td client event`. Arguments must be ground (symbols or integers); the
/// optional `at <ts>` clause supplies an explicit non-negative timestamp,
/// otherwise the server assigns its own clock reading.
pub fn parse_event(src: &str) -> Result<(String, Vec<Value>, Option<u64>), ParseErrors> {
    let one = |e: ParseError| ParseErrors { errors: vec![e] };
    let tokens = Lexer::new(src).tokenize().map_err(one)?;
    let mut p = Parser::new(tokens, None);
    let (name, span) = p.ident("an event name").map_err(one)?;
    p.check_not_reserved(name, span).map_err(one)?;
    let mut scope = VarScope::default();
    let mut args = Vec::new();
    if p.peek() == Tok::LParen {
        p.bump();
        loop {
            let tspan = p.span();
            let term = p.term(&mut scope).map_err(one)?;
            match term.as_value() {
                Some(v) => args.push(v),
                None => {
                    return Err(one(ParseError::new(
                        ParseErrorKind::Invalid(
                            "event arguments must be ground (no variables)".to_owned(),
                        ),
                        tspan,
                    )))
                }
            }
            match p.peek() {
                Tok::Comma => {
                    p.bump();
                }
                Tok::RParen => {
                    p.bump();
                    break;
                }
                _ => return Err(one(p.unexpected("`,` or `)`"))),
            }
        }
    }
    let ts = match p.peek() {
        Tok::Ident("at") => {
            p.bump();
            match p.peek() {
                Tok::Int(n) if n >= 0 => {
                    p.bump();
                    Some(u64::try_from(n).expect("non-negative i64 fits u64"))
                }
                _ => return Err(one(p.unexpected("a non-negative timestamp"))),
            }
        }
        _ => None,
    };
    if p.peek() != Tok::Eof {
        return Err(one(p.unexpected("end of event")));
    }
    Ok((name.to_owned(), args, ts))
}

/// A variable of a scope, by the text it is written with.
enum VarName<'a> {
    Written(&'a str),
    /// The `n`-th bare `_` of the scope, named `_n`.
    Anon(u32),
}

impl VarName<'_> {
    /// Is this the variable `name` denotes? A `_n` written after the
    /// scope's `n`-th bare `_` denotes that variable, whose name it is.
    fn is(&self, name: &str) -> bool {
        match self {
            VarName::Written(s) => *s == name,
            VarName::Anon(n) => name
                .strip_prefix('_')
                .is_some_and(|d| !d.starts_with('0') && d.parse() == Ok(*n)),
        }
    }
}

/// The variables of one rule, goal or trigger, numbered by first
/// occurrence.
#[derive(Default)]
struct VarScope<'a> {
    names: Vec<VarName<'a>>,
    anon: u32,
}

impl<'a> VarScope<'a> {
    fn lookup(&mut self, name: &'a str) -> Term {
        let next = || Term::var(u32::try_from(self.names.len()).expect("too many variables"));
        if name == "_" {
            // Each bare underscore is a fresh variable.
            let fresh = next();
            self.anon += 1;
            self.names.push(VarName::Anon(self.anon));
            return fresh;
        }
        match self.names.iter().position(|n| n.is(name)) {
            Some(i) => Term::var(u32::try_from(i).expect("too many variables")),
            None => {
                let fresh = next();
                self.names.push(VarName::Written(name));
                fresh
            }
        }
    }

    /// The scope's variable names, interned, indexed by variable id.
    fn finish(self) -> Vec<Symbol> {
        let intern = |n: VarName| match n {
            VarName::Written(s) => Symbol::intern(s),
            VarName::Anon(i) => Symbol::intern(&format!("_{i}")),
        };
        self.names.into_iter().map(intern).collect()
    }
}

/// Maximum bracket/operator nesting depth. Recursive descent uses the call
/// stack; beyond this we report a clean error instead of overflowing.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    depth: usize,
    /// The program a standalone goal is checked against as it is read
    /// ([`parse_goal`]); `None` in a program file, whose goals are checked
    /// once the whole program is built.
    checked_against: Option<&'a Program>,
    /// Where the goal being checked starts: the span its errors point at.
    goal_start: Span,
}

/// The outcome of parsing a primary item: a goal, a bare term that may
/// become the left side of a builtin, or a bare name, which is either.
enum Primary<'a> {
    Goal(Goal),
    Term(Term),
    /// A bare identifier: a 0-ary atom, or a constant if an operator
    /// follows.
    Name(&'a str),
}

/// An atom as written, not yet built: its name and arity, and the index of
/// its first argument token (arguments are single tokens, `,`-separated).
struct Written<'a> {
    name: &'a str,
    arity: usize,
    first: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>, checked_against: Option<&'a Program>) -> Parser<'a> {
        let goal_start = tokens[0].span;
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            checked_against,
            goal_start,
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(ParseError::new(
                ParseErrorKind::TooDeep { limit: MAX_DEPTH },
                self.span(),
            ))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].tok
    }

    fn peek2(&self) -> Tok<'a> {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        self.tokens[i].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<Token<'a>, ParseError> {
        if self.peek() == tok {
            Ok(self.bump())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            ParseErrorKind::Expected {
                expected: expected.to_owned(),
                found: self.peek().to_string(),
            },
            self.span(),
        )
    }

    fn ident(&mut self, what: &str) -> Result<(&'a str, Span), ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                let span = self.span();
                self.bump();
                Ok((s, span))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn check_not_reserved(&self, name: &str, span: Span) -> Result<(), ParseError> {
        if RESERVED.contains(&name) {
            Err(ParseError::new(
                ParseErrorKind::Expected {
                    expected: "a predicate or constant name".to_owned(),
                    found: format!("reserved word `{name}`"),
                },
                span,
            ))
        } else {
            Ok(())
        }
    }

    /// Skip to just past the next `.` (statement recovery).
    fn sync(&mut self) {
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    return;
                }
                Tok::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn program(&mut self) -> Result<ParsedProgram, ParseErrors> {
        let mut errors = Vec::new();
        let mut builder = Program::builder();
        let mut init: Vec<Atom> = Vec::new();
        let mut goals: Vec<ParsedGoal> = Vec::new();
        let mut triggers: Vec<Trigger> = Vec::new();
        let mut init_spans: Vec<Span> = Vec::new();
        let mut trigger_spans: Vec<Span> = Vec::new();

        while self.peek() != Tok::Eof {
            match self.statement() {
                Ok(Stmt::Base(name, arity)) => {
                    builder = builder.base_pred(name, arity);
                }
                Ok(Stmt::Event(name, arity)) => {
                    builder = builder.event_pred(name, arity);
                }
                Ok(Stmt::Init(atom, span)) => {
                    init.push(atom);
                    init_spans.push(span);
                }
                Ok(Stmt::Rule(rule)) => {
                    builder = builder.rule(rule);
                }
                Ok(Stmt::Goal(g)) => {
                    goals.push(g);
                }
                Ok(Stmt::Trigger(t, span)) => {
                    triggers.push(t);
                    trigger_spans.push(span);
                }
                Err(e) => {
                    errors.push(e);
                    self.sync();
                }
            }
        }

        // Build & validate the program.
        let program = match builder.build() {
            Ok(p) => p,
            Err(e) => {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(e.to_string()),
                    Span::zero(),
                ));
                return Err(ParseErrors { errors });
            }
        };

        // Validate init atoms: ground, base predicate, not an event relation
        // (event tuples arrive only via the server's ingestion surface).
        for (atom, span) in init.iter().zip(&init_spans) {
            if program.is_event(atom.pred) {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(format!(
                        "init tuple for event relation `{}`; event tuples \
                         arrive only via event ingestion",
                        atom.pred
                    )),
                    *span,
                ));
            } else if !program.is_base(atom.pred) {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(format!(
                        "init tuple for `{}` which is not a base relation",
                        atom.pred
                    )),
                    *span,
                ));
            } else if !atom.is_ground() {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(format!("init tuple `{atom}` is not ground")),
                    *span,
                ));
            }
        }

        // Validate goals.
        for g in &goals {
            if let Err(e) = validate_goal(&program, &g.goal) {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(e.to_string()),
                    g.span,
                ));
            }
        }

        // Validate triggers: pattern leaves name declared event relations at
        // the declared arity, and the goal validates like a query.
        for (t, span) in triggers.iter().zip(&trigger_spans) {
            if let Err(e) = validate_trigger(&program, t) {
                errors.push(ParseError::new(
                    ParseErrorKind::Invalid(e.to_string()),
                    *span,
                ));
            }
        }

        if errors.is_empty() {
            Ok(ParsedProgram {
                program,
                init,
                goals,
                triggers,
            })
        } else {
            Err(ParseErrors { errors })
        }
    }

    /// `/` and a non-negative arity, then `.`.
    fn arity(&mut self) -> Result<u32, ParseError> {
        self.expect(Tok::Slash, "`/` and an arity")?;
        let arity = match self.peek() {
            Tok::Int(n) if n >= 0 => {
                self.bump();
                u32::try_from(n).map_err(|_| self.unexpected("a small arity"))?
            }
            _ => return Err(self.unexpected("an arity")),
        };
        self.expect(Tok::Dot, "`.`")?;
        Ok(arity)
    }

    fn statement(&mut self) -> Result<Stmt<'a>, ParseError> {
        match self.peek() {
            Tok::Ident("base") if matches!(self.peek2(), Tok::Ident(_)) => {
                self.bump();
                let (name, span) = self.ident("a relation name")?;
                self.check_not_reserved(name, span)?;
                Ok(Stmt::Base(name, self.arity()?))
            }
            Tok::Ident("event") if matches!(self.peek2(), Tok::Ident(_)) => {
                self.bump();
                let (name, span) = self.ident("an event relation name")?;
                self.check_not_reserved(name, span)?;
                Ok(Stmt::Event(name, self.arity()?))
            }
            Tok::Ident("on") => {
                self.bump();
                let span = self.span();
                let mut scope = VarScope::default();
                let pattern = self.pattern(&mut scope)?;
                match self.peek() {
                    Tok::Ident("do") => {
                        self.bump();
                    }
                    _ => return Err(self.unexpected("`do` and a trigger goal")),
                }
                let goal = self.goal(&mut scope)?;
                self.expect(Tok::Dot, "`.`")?;
                Ok(Stmt::Trigger(
                    Trigger {
                        pattern,
                        goal,
                        var_names: scope.finish(),
                    },
                    span,
                ))
            }
            Tok::Ident("init") if matches!(self.peek2(), Tok::Ident(_)) => {
                self.bump();
                let span = self.span();
                let mut scope = VarScope::default();
                let atom = self.atom(&mut scope)?;
                self.expect(Tok::Dot, "`.`")?;
                Ok(Stmt::Init(atom, span))
            }
            Tok::Query => {
                self.bump();
                let span = self.span();
                let mut scope = VarScope::default();
                let goal = self.goal(&mut scope)?;
                self.expect(Tok::Dot, "`.`")?;
                Ok(Stmt::Goal(ParsedGoal {
                    goal,
                    var_names: scope.finish(),
                    span,
                }))
            }
            _ => {
                // Rule or derived fact.
                let mut scope = VarScope::default();
                let head = self.atom(&mut scope)?;
                let body = if self.peek() == Tok::Arrow {
                    self.bump();
                    self.goal(&mut scope)?
                } else {
                    Goal::True
                };
                self.expect(Tok::Dot, "`.`")?;
                Ok(Stmt::Rule(Rule::with_var_names(head, body, scope.finish())))
            }
        }
    }

    /// Read an atom's name and arguments as written, interning nothing.
    fn written_atom(&mut self) -> Result<Written<'a>, ParseError> {
        let (name, span) = self.ident("a predicate name")?;
        self.check_not_reserved(name, span)?;
        let first = self.pos + 1;
        let mut arity = 0;
        if self.peek() == Tok::LParen {
            self.bump();
            loop {
                self.term_token()?;
                arity += 1;
                match self.peek() {
                    Tok::Comma => {
                        self.bump();
                    }
                    Tok::RParen => {
                        self.bump();
                        break;
                    }
                    _ => return Err(self.unexpected("`,` or `)`")),
                }
            }
        }
        Ok(Written { name, arity, first })
    }

    /// The atom `w` as read, its name and arguments interned.
    fn build(&self, w: &Written<'a>, scope: &mut VarScope<'a>) -> Atom {
        let arg = |i: usize| term_of(self.tokens[w.first + 2 * i].tok, scope);
        Atom::new(w.name, (0..w.arity).map(arg).collect())
    }

    fn atom(&mut self, scope: &mut VarScope<'a>) -> Result<Atom, ParseError> {
        let written = self.written_atom()?;
        Ok(self.build(&written, scope))
    }

    /// An atom leaf of kind `leaf` in a goal: for a checked goal, a name
    /// nothing has interned is refused before the arguments are.
    fn leaf_atom(&mut self, scope: &mut VarScope<'a>, leaf: AtomLeaf) -> Result<Atom, ParseError> {
        let written = self.written_atom()?;
        self.refuse_unknown(leaf, written.name, written.arity)?;
        Ok(self.build(&written, scope))
    }

    /// Refuse an atom leaf over a name nothing has interned, when checking
    /// a goal: no program has such a predicate.
    fn refuse_unknown(&self, leaf: AtomLeaf, name: &str, arity: usize) -> Result<(), ParseError> {
        if self.checked_against.is_none() || Symbol::lookup(name).is_some() {
            return Ok(());
        }
        let arity = u32::try_from(arity).expect("atom arity overflow");
        Err(ParseError::new(
            ParseErrorKind::Invalid(unknown_name(leaf, name, arity)),
            self.goal_start,
        ))
    }

    /// A completed leaf, checked against the program when checking a goal.
    fn checked(&self, leaf: Goal) -> Result<Goal, ParseError> {
        match self.checked_against.map(|p| validate_goal(p, &leaf)) {
            Some(Err(e)) => Err(ParseError::new(
                ParseErrorKind::Invalid(e.to_string()),
                self.goal_start,
            )),
            _ => Ok(leaf),
        }
    }

    /// Step over one term token, checking it is a term.
    fn term_token(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Var(_) | Tok::Int(_) => {}
            Tok::Ident(name) => self.check_not_reserved(name, self.span())?,
            _ => return Err(self.unexpected("a term")),
        }
        self.bump();
        Ok(())
    }

    fn term(&mut self, scope: &mut VarScope<'a>) -> Result<Term, ParseError> {
        let tok = self.peek();
        self.term_token()?;
        Ok(term_of(tok, scope))
    }

    fn goal(&mut self, scope: &mut VarScope<'a>) -> Result<Goal, ParseError> {
        // par := seq ('|' seq)*
        self.enter()?;
        let result = (|| {
            let first = self.seq(scope)?;
            if self.peek() != Tok::Pipe {
                return Ok(first);
            }
            let mut branches = vec![first];
            while self.peek() == Tok::Pipe {
                self.bump();
                branches.push(self.seq(scope)?);
            }
            Ok(Goal::par(branches))
        })();
        self.leave();
        result
    }

    fn seq(&mut self, scope: &mut VarScope<'a>) -> Result<Goal, ParseError> {
        let first = self.unary(scope)?;
        if self.peek() != Tok::Star {
            return Ok(first);
        }
        let mut steps = vec![first];
        while self.peek() == Tok::Star {
            self.bump();
            steps.push(self.unary(scope)?);
        }
        Ok(Goal::seq(steps))
    }

    fn unary(&mut self, scope: &mut VarScope<'a>) -> Result<Goal, ParseError> {
        // A term (or a bare name) may continue as a builtin.
        let lhs = match self.primary(scope)? {
            Primary::Goal(g) => return Ok(g),
            Primary::Term(t) => t,
            Primary::Name(name) => match self.peek() {
                Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge | Tok::Ident("is") => {
                    Term::sym(name)
                }
                _ => {
                    self.refuse_unknown(AtomLeaf::Call, name, 0)?;
                    return self.checked(Goal::Atom(Atom::prop(name)));
                }
            },
        };
        match self.peek() {
            Tok::Eq | Tok::Ne | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge => {
                let op = match self.bump().tok {
                    Tok::Eq => Builtin::Eq,
                    Tok::Ne => Builtin::Ne,
                    Tok::Lt => Builtin::Lt,
                    Tok::Le => Builtin::Le,
                    Tok::Gt => Builtin::Gt,
                    Tok::Ge => Builtin::Ge,
                    _ => unreachable!(),
                };
                let rhs = self.term(scope)?;
                Ok(Goal::Builtin(op, vec![lhs, rhs]))
            }
            Tok::Ident("is") => {
                self.bump();
                let a = self.term(scope)?;
                let op = match self.peek() {
                    Tok::Plus => Builtin::Add,
                    Tok::Minus => Builtin::Sub,
                    Tok::Star => Builtin::Mul,
                    _ => return Err(ParseError::new(ParseErrorKind::MalformedArith, self.span())),
                };
                self.bump();
                let b = self.term(scope)?;
                Ok(Goal::Builtin(op, vec![a, b, lhs]))
            }
            _ => Err(self.unexpected("a goal (found a bare term)")),
        }
    }

    fn primary(&mut self, scope: &mut VarScope<'a>) -> Result<Primary<'a>, ParseError> {
        match self.peek() {
            Tok::Ident(s @ ("ins" | "del")) if self.peek2() == Tok::Dot => {
                self.bump(); // ins/del
                self.bump(); // .
                let atom = self.leaf_atom(scope, AtomLeaf::Update)?;
                let update = if s == "ins" {
                    Goal::Ins(atom)
                } else {
                    Goal::Del(atom)
                };
                Ok(Primary::Goal(self.checked(update)?))
            }
            Tok::Ident("iso") if self.peek2() == Tok::LBrace => {
                self.bump();
                self.bump();
                let inner = self.goal_or_choice(scope)?;
                self.expect(Tok::RBrace, "`}`")?;
                Ok(Primary::Goal(Goal::iso(inner)))
            }
            Tok::Ident("not") => {
                self.bump();
                let atom = self.leaf_atom(scope, AtomLeaf::Not)?;
                Ok(Primary::Goal(self.checked(Goal::NotAtom(atom))?))
            }
            Tok::Ident("fail") => {
                self.bump();
                Ok(Primary::Goal(Goal::Fail))
            }
            Tok::Ident(_) => {
                let written = self.written_atom()?;
                if written.arity == 0 {
                    // Bare identifier: 0-ary atom, or a constant term if an
                    // operator follows.
                    return Ok(Primary::Name(written.name));
                }
                self.refuse_unknown(AtomLeaf::Call, written.name, written.arity)?;
                let call = Goal::Atom(self.build(&written, scope));
                Ok(Primary::Goal(self.checked(call)?))
            }
            Tok::Var(name) => {
                self.bump();
                Ok(Primary::Term(scope.lookup(name)))
            }
            Tok::Int(n) => {
                self.bump();
                Ok(Primary::Term(Term::int(n)))
            }
            Tok::LParen => {
                self.bump();
                if self.peek() == Tok::RParen {
                    self.bump();
                    return Ok(Primary::Goal(Goal::True));
                }
                let inner = self.goal(scope)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Primary::Goal(inner))
            }
            Tok::LBrace => {
                self.bump();
                let inner = self.goal_or_choice(scope)?;
                self.expect(Tok::RBrace, "`}`")?;
                Ok(Primary::Goal(inner))
            }
            _ => Err(self.unexpected("a goal")),
        }
    }

    /// A complex-event pattern:
    /// `seq(p, q)` | `and(p, q)` | `within(p, Δt)` | event atom.
    /// `seq`, `and` and `within` are contextual: they act as combinators
    /// only when followed by `(` inside a pattern.
    fn pattern(&mut self, scope: &mut VarScope<'a>) -> Result<EventPattern, ParseError> {
        self.enter()?;
        let result = (|| match self.peek() {
            Tok::Ident(s @ ("seq" | "and")) if self.peek2() == Tok::LParen => {
                self.bump();
                self.bump();
                let l = self.pattern(scope)?;
                self.expect(Tok::Comma, "`,`")?;
                let r = self.pattern(scope)?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(if s == "seq" {
                    EventPattern::Seq(Box::new(l), Box::new(r))
                } else {
                    EventPattern::And(Box::new(l), Box::new(r))
                })
            }
            Tok::Ident("within") if self.peek2() == Tok::LParen => {
                self.bump();
                self.bump();
                let p = self.pattern(scope)?;
                self.expect(Tok::Comma, "`,`")?;
                let bound = match self.peek() {
                    Tok::Int(n) if n >= 0 => {
                        self.bump();
                        u64::try_from(n).expect("non-negative i64 fits u64")
                    }
                    _ => return Err(self.unexpected("a non-negative window bound")),
                };
                self.expect(Tok::RParen, "`)`")?;
                Ok(EventPattern::Within(Box::new(p), bound))
            }
            Tok::Ident(_) => Ok(EventPattern::Atom(self.atom(scope)?)),
            _ => Err(self.unexpected("an event pattern")),
        })();
        self.leave();
        result
    }

    /// Inside braces: `goal (or goal)*`.
    fn goal_or_choice(&mut self, scope: &mut VarScope<'a>) -> Result<Goal, ParseError> {
        let first = self.goal(scope)?;
        if self.peek() != Tok::Ident("or") {
            return Ok(first);
        }
        let mut branches = vec![first];
        while self.peek() == Tok::Ident("or") {
            self.bump();
            branches.push(self.goal(scope)?);
        }
        Ok(Goal::choice(branches))
    }
}

/// The term a term token stands for, its name interned.
fn term_of<'a>(tok: Tok<'a>, scope: &mut VarScope<'a>) -> Term {
    match tok {
        Tok::Var(name) => scope.lookup(name),
        Tok::Int(n) => Term::int(n),
        Tok::Ident(name) => Term::sym(name),
        _ => unreachable!("checked by `term_token`"),
    }
}

enum Stmt<'a> {
    Base(&'a str, u32),
    Event(&'a str, u32),
    Init(Atom, Span),
    Rule(Rule),
    Goal(ParsedGoal),
    Trigger(Trigger, Span),
}

#include "frontend/parser.hpp"

#include <functional>
#include <map>
#include <optional>

#include "frontend/lexer.hpp"

namespace systolize::frontend {
namespace {

/// The basic statement as parsed, before its names resolve to stream
/// slots (streams may be declared after the body).
struct StatementSyntax {
  std::string target;
  std::vector<Statement::Instr> rhs;  ///< Slot args index `names`
  std::vector<std::string> names;     ///< operands, in source order
  bool guarded = false;
  IntVec guard;  ///< guard . x + guard_constant >= 0
  Int guard_constant = 0;
};

/// Resolve the parsed names to slots in `streams` order.
Statement resolve_statement(const StatementSyntax& st,
                            const std::vector<Stream>& streams) {
  auto slot_of = [&](const std::string& v, const std::string& role) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].name() == v) return i;
    }
    raise(ErrorKind::Validation,
          "body " + role + " '" + v + "', which is not a stream");
  };
  const std::size_t target = slot_of(st.target, "assigns to");
  std::vector<Statement::Instr> rhs = st.rhs;
  for (Statement::Instr& in : rhs) {
    if (in.op != Statement::Op::Slot) continue;
    in.arg = static_cast<Value>(
        slot_of(st.names[static_cast<std::size_t>(in.arg)], "uses"));
  }
  if (!st.guarded) return Statement(target, std::move(rhs));
  return Statement(target, std::move(rhs), st.guard, st.guard_constant);
}

struct ParsedStream {
  std::string name;
  bool update = false;
  std::vector<VarDim> dims;
};

class Parser {
 public:
  explicit Parser(const std::string& source) : tokens_(lex(source)) {}

  Design parse() {
    expect_keyword("design");
    name_ = take(TokKind::Ident).text;
    while (peek().kind != TokKind::End) {
      const Token& t = peek();
      if (t.kind != TokKind::Ident) fail("expected a declaration keyword");
      if (t.text == "sizes") {
        parse_sizes();
      } else if (t.text == "loop") {
        parse_loop();
      } else if (t.text == "stream") {
        parse_stream();
      } else if (t.text == "body") {
        parse_body();
      } else if (t.text == "step") {
        parse_step();
      } else if (t.text == "place") {
        parse_place();
      } else if (t.text == "load") {
        parse_load();
      } else {
        fail("unknown declaration '" + t.text + "'");
      }
    }
    return finish();
  }

  /// A lone statement over given loops and streams.
  Statement statement(std::vector<LoopSpec> loops,
                      const std::vector<Stream>& streams) {
    loops_ = std::move(loops);
    StatementSyntax st = parse_statement_syntax();
    if (peek().kind != TokKind::End) fail("expected the end of the statement");
    return resolve_statement(st, streams);
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    raise(ErrorKind::Parse,
          "line " + std::to_string(peek().line) + ": " + msg + " (got " +
              peek().describe() + ")");
  }

  const Token& peek() const { return tokens_[pos_]; }

  Token take(TokKind kind) {
    if (peek().kind != kind) {
      fail("expected " + Token{kind, "", 0, 0}.describe());
    }
    return tokens_[pos_++];
  }

  bool accept(TokKind kind) {
    if (peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  void expect_keyword(const std::string& kw) {
    Token t = take(TokKind::Ident);
    if (t.text != kw) {
      raise(ErrorKind::Parse, "line " + std::to_string(t.line) +
                                  ": expected '" + kw + "', got '" + t.text +
                                  "'");
    }
  }

  // ---- affine expressions over a resolver ------------------------------

  AffineExpr parse_affine(
      const std::function<AffineExpr(const std::string&)>& resolve) {
    AffineExpr e = parse_affine_term(resolve);
    for (;;) {
      if (accept(TokKind::Plus)) {
        e += parse_affine_term(resolve);
      } else if (accept(TokKind::Minus)) {
        e -= parse_affine_term(resolve);
      } else {
        return e;
      }
    }
  }

  AffineExpr parse_affine_term(
      const std::function<AffineExpr(const std::string&)>& resolve) {
    AffineExpr e = parse_affine_factor(resolve);
    while (accept(TokKind::Star)) {
      AffineExpr f = parse_affine_factor(resolve);
      // Affine expressions only multiply by constants.
      if (e.is_constant()) {
        e = f * e.constant();
      } else if (f.is_constant()) {
        e = e * f.constant();
      } else {
        fail("non-linear product in an affine expression");
      }
    }
    return e;
  }

  AffineExpr parse_affine_factor(
      const std::function<AffineExpr(const std::string&)>& resolve) {
    if (accept(TokKind::Minus)) return -parse_affine_factor(resolve);
    if (peek().kind == TokKind::Integer) {
      return AffineExpr(Rational(take(TokKind::Integer).value));
    }
    if (peek().kind == TokKind::Ident) {
      return resolve(take(TokKind::Ident).text);
    }
    if (accept(TokKind::LParen)) {
      AffineExpr e = parse_affine(resolve);
      take(TokKind::RParen);
      return e;
    }
    fail("expected an expression");
  }

  AffineExpr parse_size_expr() {
    return parse_affine([this](const std::string& id) -> AffineExpr {
      for (const Symbol& s : sizes_) {
        if (s.name() == id) return AffineExpr(s);
      }
      fail("'" + id + "' is not a declared problem-size variable");
    });
  }

  /// Affine combination of loop indices: coefficients plus a constant.
  std::pair<IntVec, Int> parse_loop_affine(const std::string& what) {
    AffineExpr e = parse_affine([this](const std::string& id) -> AffineExpr {
      for (std::size_t i = 0; i < loops_.size(); ++i) {
        if (loops_[i].index_name == id) {
          return AffineExpr(size_symbol("$loop" + std::to_string(i)));
        }
      }
      fail("'" + id + "' is not a loop index");
    });
    if (!e.constant().is_integer()) {
      raise(ErrorKind::Validation, what + " needs an integer constant");
    }
    IntVec coeffs(loops_.size());
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      Rational c = e.coeff(size_symbol("$loop" + std::to_string(i)));
      if (!c.is_integer()) {
        raise(ErrorKind::Validation, what + " needs integer coefficients");
      }
      coeffs[i] = c.to_integer();
    }
    return {std::move(coeffs), e.constant().to_integer()};
  }

  /// Linear combination of loop indices: returns the coefficient vector;
  /// rejects constants and non-integer coefficients (Appendix A.2).
  IntVec parse_loop_linear(const std::string& what) {
    auto [coeffs, constant] = parse_loop_affine(what);
    if (constant != 0) {
      raise(ErrorKind::Validation,
            what + " must be linear in the loop indices (no constant term)");
    }
    return coeffs;
  }

  // ---- declarations -----------------------------------------------------

  void parse_sizes() {
    expect_keyword("sizes");
    do {
      std::string name = take(TokKind::Ident).text;
      take(TokKind::Ge);
      bool neg = accept(TokKind::Minus);
      Int bound = take(TokKind::Integer).value;
      if (neg) bound = -bound;
      Symbol s = size_symbol(name);
      sizes_.push_back(s);
      assumptions_.add(Constraint{AffineExpr(bound), AffineExpr(s)});
    } while (accept(TokKind::Comma));
  }

  void parse_loop() {
    expect_keyword("loop");
    LoopSpec loop;
    loop.index_name = take(TokKind::Ident).text;
    take(TokKind::Equals);
    loop.lower = parse_size_expr();
    take(TokKind::DotDot);
    loop.upper = parse_size_expr();
    loop.step = 1;
    if (peek().kind == TokKind::Ident && peek().text == "by") {
      take(TokKind::Ident);
      bool neg = accept(TokKind::Minus);
      Int st = take(TokKind::Integer).value;
      loop.step = neg ? -st : st;
    }
    loops_.push_back(std::move(loop));
  }

  void parse_stream() {
    expect_keyword("stream");
    ParsedStream s;
    s.name = take(TokKind::Ident).text;
    take(TokKind::LBracket);
    do {
      // Index-map rows reference loop indices, so loops must be declared
      // before streams.
      index_rows_[s.name].push_back(
          parse_loop_linear("index of stream '" + s.name + "'"));
    } while (accept(TokKind::Comma));
    take(TokKind::RBracket);
    Token mode = take(TokKind::Ident);
    if (mode.text == "read") {
      s.update = false;
    } else if (mode.text == "update") {
      s.update = true;
    } else {
      raise(ErrorKind::Parse, "line " + std::to_string(mode.line) +
                                  ": expected 'read' or 'update'");
    }
    expect_keyword("dims");
    take(TokKind::LBracket);
    do {
      AffineExpr lo = parse_size_expr();
      take(TokKind::DotDot);
      AffineExpr hi = parse_size_expr();
      s.dims.push_back(VarDim{std::move(lo), std::move(hi)});
    } while (accept(TokKind::Comma));
    take(TokKind::RBracket);
    streams_.push_back(std::move(s));
  }

  void push(StatementSyntax& st, Statement::Op op, Value arg = 0) {
    st.rhs.push_back(Statement::Instr{op, arg});
  }

  void parse_stmt_expr(StatementSyntax& st) {
    parse_stmt_term(st);
    for (;;) {
      if (accept(TokKind::Plus)) {
        parse_stmt_term(st);
        push(st, Statement::Op::Add);
      } else if (accept(TokKind::Minus)) {
        parse_stmt_term(st);
        push(st, Statement::Op::Sub);
      } else {
        return;
      }
    }
  }

  void parse_stmt_term(StatementSyntax& st) {
    parse_stmt_factor(st);
    while (accept(TokKind::Star)) {
      parse_stmt_factor(st);
      push(st, Statement::Op::Mul);
    }
  }

  void parse_stmt_factor(StatementSyntax& st) {
    if (accept(TokKind::Minus)) {  // -x is 0 - x
      push(st, Statement::Op::Const);
      parse_stmt_factor(st);
      push(st, Statement::Op::Sub);
    } else if (peek().kind == TokKind::Integer) {
      push(st, Statement::Op::Const, take(TokKind::Integer).value);
    } else if (peek().kind == TokKind::Ident) {
      st.names.push_back(take(TokKind::Ident).text);
      push(st, Statement::Op::Slot, static_cast<Value>(st.names.size() - 1));
    } else if (accept(TokKind::LParen)) {
      parse_stmt_expr(st);
      take(TokKind::RParen);
    } else {
      fail("expected a statement expression");
    }
  }

  /// The statement grammar:
  ///   <target> := <expr> [when <loop-affine> (>= | <=) <loop-affine>]
  /// where <expr> is +, - (left associative) and * (binding tighter) over
  /// stream names, integers, unary minus and parentheses. The optional
  /// guard is the paper's B_j -> S_j form (Sect. 3.1).
  StatementSyntax parse_statement_syntax() {
    StatementSyntax st;
    st.target = take(TokKind::Ident).text;
    take(TokKind::Assign);
    parse_stmt_expr(st);
    if (peek().kind == TokKind::Ident && peek().text == "when") {
      take(TokKind::Ident);
      auto [lc, lk] = parse_loop_affine("guard");
      bool ge;
      if (accept(TokKind::Ge)) {
        ge = true;
      } else if (accept(TokKind::Le)) {
        ge = false;
      } else {
        fail("expected '>=' or '<=' in the body guard");
      }
      auto [rc, rk] = parse_loop_affine("guard");
      // Normalize to coeffs . x + constant >= 0.
      st.guard = ge ? lc - rc : rc - lc;
      st.guard_constant = ge ? lk - rk : rk - lk;
      st.guarded = true;
    }
    return st;
  }

  void parse_body() {
    expect_keyword("body");
    body_ = parse_statement_syntax();
  }

  void parse_step() {
    expect_keyword("step");
    step_ = parse_loop_linear("step");
    have_step_ = true;
  }

  void parse_place() {
    expect_keyword("place");
    take(TokKind::LParen);
    std::vector<IntVec> rows;
    do {
      rows.push_back(parse_loop_linear("place"));
    } while (accept(TokKind::Comma));
    take(TokKind::RParen);
    place_rows_ = std::move(rows);
    have_place_ = true;
  }

  void parse_load() {
    expect_keyword("load");
    std::string stream = take(TokKind::Ident).text;
    take(TokKind::Equals);
    take(TokKind::LParen);
    std::vector<Int> comps;
    do {
      bool neg = accept(TokKind::Minus);
      Int v = take(TokKind::Integer).value;
      comps.push_back(neg ? -v : v);
    } while (accept(TokKind::Comma));
    take(TokKind::RParen);
    loading_[stream] = IntVec(std::move(comps));
  }

  // ---- assembly -----------------------------------------------------------

  Design finish() {
    if (loops_.empty()) raise(ErrorKind::Validation, "no loops declared");
    if (!have_step_) raise(ErrorKind::Validation, "no step function");
    if (!have_place_) raise(ErrorKind::Validation, "no place function");
    if (!body_) raise(ErrorKind::Validation, "no body statement");

    const std::size_t r = loops_.size();
    std::vector<Stream> streams;
    for (const ParsedStream& ps : streams_) {
      const auto& rows = index_rows_.at(ps.name);
      IntMatrix m(rows.size(), r);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t j = 0; j < r; ++j) m.at(i, j) = rows[i][j];
      }
      streams.emplace_back(ps.name, std::move(m), ps.dims,
                           ps.update ? StreamAccess::Update
                                     : StreamAccess::Read);
    }

    Statement body = resolve_statement(*body_, streams);

    IntMatrix place(place_rows_.size(), r);
    for (std::size_t i = 0; i < place_rows_.size(); ++i) {
      for (std::size_t j = 0; j < r; ++j) place.at(i, j) = place_rows_[i][j];
    }

    LoopNest nest(name_, loops_, std::move(streams), sizes_, assumptions_,
                  std::move(body));
    ArraySpec spec(StepFunction(step_), PlaceFunction(std::move(place)),
                   loading_);
    return Design{std::move(nest), std::move(spec),
                  "parsed design '" + name_ + "'"};
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;

  std::string name_;
  std::vector<Symbol> sizes_;
  Guard assumptions_;
  std::vector<LoopSpec> loops_;
  std::vector<ParsedStream> streams_;
  std::map<std::string, std::vector<IntVec>> index_rows_;
  std::optional<StatementSyntax> body_;
  IntVec step_;
  bool have_step_ = false;
  std::vector<IntVec> place_rows_;
  bool have_place_ = false;
  std::map<std::string, IntVec> loading_;
};

}  // namespace

Design parse_design(const std::string& source) {
  return Parser(source).parse();
}

Statement parse_statement(const std::string& text,
                          const std::vector<Stream>& streams,
                          const std::vector<LoopSpec>& loops) {
  return Parser(text).statement(loops, streams);
}

}  // namespace systolize::frontend

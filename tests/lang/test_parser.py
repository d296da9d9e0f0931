"""Parser unit tests."""

import pytest

from repro.lang import ParseError, ast, parse_program


def parse_one(source):
    program = parse_program(source)
    assert len(program.classes) == 1
    return program.classes[0]


def test_empty_class():
    cls = parse_one("class A { }")
    assert cls.name == "A"
    assert cls.super_name is None
    assert not cls.members


def test_extends_and_implements():
    cls = parse_one("class A extends B implements C, D { }")
    assert cls.super_name == "B"
    assert cls.interfaces == ["C", "D"]


def test_interface_with_abstract_method():
    cls = parse_one("interface I { void run(); }")
    assert cls.is_interface
    method = cls.method_decls()[0]
    assert method.name == "run"
    assert method.body.statements == []


def test_field_with_initializer():
    cls = parse_one("class A { int x = 3; static String s; }")
    fields = cls.field_decls()
    assert fields[0].name == "x"
    assert isinstance(fields[0].init, ast.IntLit)
    assert fields[1].is_static


def test_constructor_detected_by_name():
    cls = parse_one("class A { A(int x) { } void A2() { } }")
    ctor = cls.method_decls()[0]
    assert ctor.is_constructor
    assert ctor.name == "<init>"
    assert ctor.params[0].name == "x"


def test_modifiers_on_methods():
    cls = parse_one(
        "class A { public static void s() { } synchronized void m() { } }"
    )
    s, m = cls.method_decls()
    assert s.is_static and not s.is_synchronized
    assert m.is_synchronized and not m.is_static


def test_annotations_are_skipped():
    cls = parse_one("class A { @Override public void m() { } }")
    assert cls.method_decls()[0].name == "m"


def test_var_decl_vs_expression_statement():
    cls = parse_one(
        "class A { void m() { int x = 1; x = 2; Foo f = null; f.bar(); } }"
    )
    stmts = cls.method_decls()[0].body.statements
    assert isinstance(stmts[0], ast.VarDecl)
    assert isinstance(stmts[1], ast.ExprStmt)
    assert isinstance(stmts[1].expr, ast.Assignment)
    assert isinstance(stmts[2], ast.VarDecl)
    assert isinstance(stmts[3], ast.ExprStmt)
    assert isinstance(stmts[3].expr, ast.Call)


def test_if_else_and_while():
    cls = parse_one(
        """
        class A {
          void m(int n) {
            if (n > 0) { n = n - 1; } else n = 0;
            while (n < 10) n = n + 1;
          }
        }
        """
    )
    stmts = cls.method_decls()[0].body.statements
    assert isinstance(stmts[0], ast.IfStmt)
    assert stmts[0].else_branch is not None
    assert isinstance(stmts[1], ast.WhileStmt)


def test_synchronized_block():
    cls = parse_one("class A { void m() { synchronized (this) { int x = 1; } } }")
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt, ast.SyncStmt)
    assert isinstance(stmt.lock, ast.ThisExpr)


def test_throw_statement():
    cls = parse_one(
        'class A { void m() { throw new NullPointerException("boom"); } }'
    )
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt, ast.ThrowStmt)
    assert stmt.exception == "NullPointerException"


def test_operator_precedence():
    cls = parse_one("class A { int m() { return 1 + 2 * 3 == 7 && true; } }")
    ret = cls.method_decls()[0].body.statements[0]
    expr = ret.value
    assert isinstance(expr, ast.Binary) and expr.op == "&&"
    eq = expr.lhs
    assert isinstance(eq, ast.Binary) and eq.op == "=="
    plus = eq.lhs
    assert isinstance(plus, ast.Binary) and plus.op == "+"
    assert isinstance(plus.rhs, ast.Binary) and plus.rhs.op == "*"


def test_chained_field_access_and_calls():
    cls = parse_one("class A { void m() { a.b.c(1, 2).d = null; } }")
    stmt = cls.method_decls()[0].body.statements[0]
    assign = stmt.expr
    assert isinstance(assign, ast.Assignment)
    target = assign.target
    assert isinstance(target, ast.FieldAccess) and target.name == "d"
    call = target.target
    assert isinstance(call, ast.Call) and call.name == "c" and len(call.args) == 2


def test_anonymous_class_body():
    cls = parse_one(
        """
        class A {
          void m(Handler h) {
            h.post(new Runnable() { public void run() { } });
          }
        }
        """
    )
    stmt = cls.method_decls()[0].body.statements[0]
    call = stmt.expr
    new_expr = call.args[0]
    assert isinstance(new_expr, ast.NewExpr)
    assert new_expr.class_name == "Runnable"
    assert new_expr.body is not None
    assert new_expr.body[0].name == "run"


def test_super_call():
    cls = parse_one(
        "class A extends Activity { void onCreate(Bundle b) { super.onCreate(b); } }"
    )
    stmt = cls.method_decls()[0].body.statements[0]
    assert isinstance(stmt.expr, ast.SuperCall)


def test_assignment_to_rvalue_rejected():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { 1 = 2; } }")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { int x = 1 } }")


def test_final_local_recorded():
    cls = parse_one("class A { void m() { final String s = \"x\"; } }")
    decl = cls.method_decls()[0].body.statements[0]
    assert decl.is_final


def test_pathological_expression_nesting_is_a_parse_error():
    # 500 nested parens used to blow the interpreter's recursion limit
    # (RecursionError escaping as an analysis crash); the parser now
    # enforces its own depth budget and reports a clean source error.
    depth = 500
    source = "class A { void m() { int x = " + "(" * depth + "1" \
        + ")" * depth + "; } }"
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(source)


def test_pathological_statement_nesting_is_a_parse_error():
    depth = 500
    body = "if (c) { " * depth + "x = 1;" + " }" * depth
    source = "class A { boolean c; int x; void m() { " + body + " } }"
    with pytest.raises(ParseError, match="nesting depth"):
        parse_program(source)


def test_assignment_chain_is_a_parse_error():
    # The right-hand side of '=' recurses past _parse_unary's guard, so
    # a long chain must stop at the parser's limit, not the interpreter's.
    source = "class A { void f() { int x; x = " + "x = " * 24_999 \
        + "1; } }"
    with pytest.raises(ParseError,
                       match="nesting depth exceeds the MiniDroid limit "
                             "of 64") as excinfo:
        parse_program(source)
    assert (excinfo.value.line, excinfo.value.column) == (1, 281)


def test_reasonable_nesting_still_parses():
    depth = 40
    source = "class A { void m() { int x = " + "(" * depth + "1" \
        + ")" * depth + "; } }"
    cls = parse_one(source)
    assert cls.method_decls()[0].name == "m"


def bracket(expr):
    """Render an expression with every operator application bracketed."""
    if isinstance(expr, ast.Binary):
        return f"({bracket(expr.lhs)} {expr.op} {bracket(expr.rhs)})"
    if isinstance(expr, ast.Assignment):
        return f"({bracket(expr.target)} = {bracket(expr.value)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{bracket(expr.operand)})"
    if isinstance(expr, ast.Name):
        return expr.ident
    return str(expr.value)


@pytest.mark.parametrize("source,expected", [
    ("1 - 2 - 3", "((1 - 2) - 3)"),
    ("1 + 2 - 3", "((1 + 2) - 3)"),
    ("8 / 4 / 2", "((8 / 4) / 2)"),
    ("8 % 3 * 2", "((8 % 3) * 2)"),
    ("a < b <= c", "((a < b) <= c)"),
    ("a == b != c", "((a == b) != c)"),
    ("a && b && c", "((a && b) && c)"),
    ("a || b || c", "((a || b) || c)"),
    ("a || b && c == d < e + f * g",
     "(a || (b && (c == (d < (e + (f * g))))))"),
    ("a * b + c < d == e && f || g",
     "((((((a * b) + c) < d) == e) && f) || g)"),
    ("-a - -b * !c", "((-a) - ((-b) * (!c)))"),
    ("x = y = 1 + 2", "(x = (y = (1 + 2)))"),
])
def test_binary_operators_associate_left_and_assignment_right(source, expected):
    cls = parse_one("class A { void m() { " + source + "; } }")
    stmt = cls.method_decls()[0].body.statements[0]
    assert bracket(stmt.expr) == expected

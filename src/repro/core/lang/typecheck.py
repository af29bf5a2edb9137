"""SafeLang type checker.

Annotates every expression with its type and rejects ill-typed
programs.  Together with the borrow checker this is the userspace
replacement for the in-kernel verifier (§3.1: "the Rust compiler
takes the role of the verifier").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.lang import ast
from repro.core.lang import types as T
from repro.errors import TypeCheckError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kcrate.api import ApiTable

_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
_BOOL_OPS = {"&&", "||"}
_ARITH_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}


@dataclass
class FnSig:
    """Signature of a user-defined function."""

    params: List[T.Ty]
    ret: T.Ty


@dataclass
class VarInfo:
    """One binding in scope."""

    ty: T.Ty
    mut: bool


def _stmt_diverges(stmt: ast.Stmt) -> bool:
    """Conservative: does this statement always leave the function?"""
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr,
                                                     ast.Panic):
        return True
    if isinstance(stmt, ast.If):
        return (stmt.else_body is not None
                and _block_diverges(stmt.then_body)
                and _block_diverges(stmt.else_body))
    if isinstance(stmt, ast.Match):
        return _block_diverges(stmt.some_body) \
            and _block_diverges(stmt.none_body)
    return False


def _block_diverges(body) -> bool:
    """Does the block always return/panic before falling off its end?"""
    return any(_stmt_diverges(stmt) for stmt in body)


class TypeChecker:
    """Check one program against the kcrate API."""

    def __init__(self, program: ast.Program, api: "ApiTable") -> None:
        self.program = program
        self.api = api
        self.fn_sigs: Dict[str, FnSig] = {}
        self._scopes: List[Dict[str, VarInfo]] = []
        self._current_ret: T.Ty = T.UNIT

    # -- entry ----------------------------------------------------------------

    def check(self) -> None:
        """Type-check every function.  Raises :class:`TypeCheckError`."""
        for fn in self.program.functions:
            if fn.name in self.api.functions:
                self._fail(fn.line, f"function {fn.name!r} shadows a "
                           "kernel-crate function")
            if fn.name in self.fn_sigs:
                self._fail(fn.line, f"duplicate function {fn.name!r}")
            self.fn_sigs[fn.name] = FnSig(
                [p.ty for p in fn.params], fn.ret_ty)
        for fn in self.program.functions:
            self._check_fn(fn)

    def _fail(self, line: int, message: str) -> None:
        raise TypeCheckError(f"line {line}: {message}")

    # -- scopes ---------------------------------------------------------------

    def _push(self) -> None:
        self._scopes.append({})

    def _pop(self) -> None:
        self._scopes.pop()

    def _declare(self, name: str, ty: T.Ty, mut: bool,
                 line: int) -> None:
        self._scopes[-1][name] = VarInfo(ty, mut)

    def _lookup(self, name: str) -> Optional[VarInfo]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # -- functions -------------------------------------------------------------

    def _check_fn(self, fn: ast.FnDef) -> None:
        self._scopes = []
        self._push()
        seen = set()
        for param in fn.params:
            if param.name in seen:
                self._fail(fn.line,
                           f"duplicate parameter {param.name!r}")
            seen.add(param.name)
            self._declare(param.name, param.ty, mut=False, line=fn.line)
        self._current_ret = fn.ret_ty
        self._check_block(fn.body)
        self._pop()
        if fn.ret_ty != T.UNIT and not _block_diverges(fn.body):
            self._fail(fn.line,
                       f"function {fn.name!r} may reach the end "
                       f"without returning {fn.ret_ty!r}")

    def _check_block(self, body: List[ast.Stmt]) -> None:
        self._push()
        for stmt in body:
            self._check_stmt(stmt)
        self._pop()

    # -- statements ----------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Let):
            ty = self._check_expr(stmt.value, expected=stmt.declared_ty)
            if stmt.declared_ty is not None:
                ty = self._coerce(stmt.value, ty, stmt.declared_ty,
                                  stmt.line)
            self._declare(stmt.name, ty, stmt.mut, stmt.line)
            return
        if isinstance(stmt, ast.Assign):
            info = self._lookup(stmt.target)
            if info is None:
                self._fail(stmt.line,
                           f"assignment to undeclared {stmt.target!r}")
            if stmt.through_ref:
                if not isinstance(info.ty, T.RefTy) or not info.ty.mut:
                    self._fail(stmt.line,
                               f"*{stmt.target} requires a &mut "
                               "reference")
                target_ty = info.ty.inner
            else:
                if not info.mut:
                    self._fail(stmt.line, f"cannot assign to immutable "
                               f"binding {stmt.target!r} (missing mut)")
                target_ty = info.ty
            value_ty = self._check_expr(stmt.value, expected=target_ty)
            self._coerce(stmt.value, value_ty, target_ty, stmt.line)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
            return
        if isinstance(stmt, ast.If):
            cond_ty = self._check_expr(stmt.cond, expected=T.BOOL)
            self._coerce(stmt.cond, cond_ty, T.BOOL, stmt.line)
            self._check_block(stmt.then_body)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body)
            return
        if isinstance(stmt, ast.While):
            cond_ty = self._check_expr(stmt.cond, expected=T.BOOL)
            self._coerce(stmt.cond, cond_ty, T.BOOL, stmt.line)
            self._check_block(stmt.body)
            return
        if isinstance(stmt, ast.For):
            if isinstance(stmt.lo, ast.IntLit) \
                    and isinstance(stmt.hi, ast.IntLit) \
                    and stmt.lo.value >= 0 and stmt.hi.value >= 0:
                # literal ranges are counts: default to u64
                lo_ty = self._check_expr(stmt.lo, expected=T.U64)
                hi_ty = self._check_expr(stmt.hi, expected=T.U64)
            elif isinstance(stmt.lo, ast.IntLit) \
                    and not isinstance(stmt.hi, ast.IntLit):
                # a literal lower bound adopts the upper bound's type
                hi_ty = self._deref(self._check_expr(stmt.hi))
                lo_ty = self._check_expr(stmt.lo, expected=hi_ty)
                lo_ty = self._coerce(stmt.lo, lo_ty, hi_ty, stmt.line)
            else:
                lo_ty = self._deref(self._check_expr(stmt.lo))
                hi_ty = self._check_expr(stmt.hi, expected=lo_ty)
                self._coerce(stmt.hi, hi_ty, lo_ty, stmt.line)
            if not T.is_int(lo_ty):
                self._fail(stmt.line, "for-range bounds must be "
                           "integers")
            self._push()
            self._declare(stmt.var, lo_ty, mut=False, line=stmt.line)
            for inner in stmt.body:
                self._check_stmt(inner)
            self._pop()
            return
        if isinstance(stmt, ast.Match):
            scrut_ty = self._check_expr(stmt.scrutinee)
            scrut_ty = self._deref(scrut_ty)
            if not isinstance(scrut_ty, T.OptionTy):
                self._fail(stmt.line,
                           f"match requires an Option, got {scrut_ty!r}")
            self._push()
            self._declare(stmt.some_var, scrut_ty.inner, mut=False,
                          line=stmt.line)
            for inner in stmt.some_body:
                self._check_stmt(inner)
            self._pop()
            self._check_block(stmt.none_body)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                if self._current_ret != T.UNIT:
                    self._fail(stmt.line, "missing return value")
                return
            value_ty = self._check_expr(stmt.value,
                                        expected=self._current_ret)
            self._coerce(stmt.value, value_ty, self._current_ret,
                         stmt.line)
            return
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return
        if isinstance(stmt, ast.DropStmt):
            if self._lookup(stmt.name) is None:
                self._fail(stmt.line, f"drop of undeclared "
                           f"{stmt.name!r}")
            return
        if isinstance(stmt, ast.UnsafeBlock):
            # unsafeck rejects these before we ever run; belt-and-braces
            self._fail(stmt.line, "unsafe block in extension code")
        self._fail(getattr(stmt, "line", 0),
                   f"unhandled statement {type(stmt).__name__}")

    # -- expressions -------------------------------------------------------------------

    def _deref(self, ty: T.Ty) -> T.Ty:
        """Auto-deref shared references for value contexts."""
        if isinstance(ty, T.RefTy):
            return ty.inner
        return ty

    def _coerce(self, node: ast.Expr, actual: T.Ty, expected: T.Ty,
                line: int) -> T.Ty:
        """Unify ``actual`` into ``expected`` or fail."""
        if actual == expected:
            return expected
        # integer literals adopt the expected integer type
        if isinstance(node, ast.IntLit) and T.is_int(expected):
            lo, hi = T.int_range(expected)
            if lo <= node.value <= hi:
                node.ty = expected
                return expected
            self._fail(line, f"literal {node.value} out of range for "
                       f"{expected!r}")
        # None adopts any Option type
        if isinstance(node, ast.NoneLit) \
                and isinstance(expected, T.OptionTy):
            node.ty = expected
            return expected
        if isinstance(node, ast.SomeExpr) \
                and isinstance(expected, T.OptionTy) \
                and isinstance(actual, T.OptionTy):
            inner = self._coerce(node.inner, actual.inner,
                                 expected.inner, line)
            node.ty = T.OptionTy(inner)
            return node.ty
        # panic! never returns; it satisfies any expectation
        if isinstance(node, ast.Panic):
            node.ty = expected
            return expected
        # auto-deref &T -> T for Copy T
        if isinstance(actual, T.RefTy) and actual.inner == expected \
                and expected.is_copy():
            return expected
        self._fail(line, f"type mismatch: expected {expected!r}, "
                   f"got {actual!r}")
        raise AssertionError  # pragma: no cover

    def _check_expr(self, node: ast.Expr,
                    expected: Optional[T.Ty] = None) -> T.Ty:
        ty = self._infer(node, expected)
        node.ty = ty
        return ty

    def _infer(self, node: ast.Expr,
               expected: Optional[T.Ty]) -> T.Ty:
        if isinstance(node, ast.IntLit):
            if expected is not None and T.is_int(expected):
                lo, hi = T.int_range(expected)
                if lo <= node.value <= hi:
                    return expected
            if node.value > T.INT_RANGES["i64"][1]:
                return T.U64
            return T.I64
        if isinstance(node, ast.BoolLit):
            return T.BOOL
        if isinstance(node, ast.StrLit):
            return T.STR
        if isinstance(node, ast.NoneLit):
            if isinstance(expected, T.OptionTy):
                return expected
            self._fail(node.line, "cannot infer the type of None here")
        if isinstance(node, ast.SomeExpr):
            inner_expected = expected.inner \
                if isinstance(expected, T.OptionTy) else None
            inner = self._check_expr(node.inner, inner_expected)
            return T.OptionTy(inner)
        if isinstance(node, ast.Name):
            info = self._lookup(node.ident)
            if info is None:
                self._fail(node.line, f"undeclared name {node.ident!r}")
            return info.ty
        if isinstance(node, ast.Panic):
            return expected if expected is not None else T.UNIT
        if isinstance(node, ast.Unary):
            return self._infer_unary(node, expected)
        if isinstance(node, ast.Binary):
            return self._infer_binary(node, expected)
        if isinstance(node, ast.Cast):
            src_ty = self._deref(self._check_expr(node.operand))
            if not (T.is_int(src_ty) and T.is_int(node.target)):
                self._fail(node.line, "as-casts are integer-to-integer "
                           "only")
            return node.target
        if isinstance(node, ast.Borrow):
            return self._infer_borrow(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.MethodCall):
            return self._infer_method(node)
        self._fail(getattr(node, "line", 0),
                   f"unhandled expression {type(node).__name__}")
        raise AssertionError  # pragma: no cover

    def _infer_unary(self, node: ast.Unary,
                     expected: Optional[T.Ty]) -> T.Ty:
        if node.op == "*":
            ty = self._check_expr(node.operand)
            if not isinstance(ty, T.RefTy):
                self._fail(node.line, "cannot dereference a "
                           "non-reference")
            return ty.inner
        ty = self._deref(self._check_expr(node.operand, expected))
        if node.op == "-":
            if not T.is_int(ty):
                self._fail(node.line, "unary minus requires an integer")
            if not T.is_signed(ty):
                self._fail(node.line, "unary minus requires a signed "
                           "integer")
            return ty
        if node.op == "!":
            if ty != T.BOOL:
                self._fail(node.line, "! requires a bool")
            return T.BOOL
        self._fail(node.line, f"unknown unary op {node.op!r}")
        raise AssertionError  # pragma: no cover

    def _infer_binary(self, node: ast.Binary,
                      expected: Optional[T.Ty]) -> T.Ty:
        if node.op in _BOOL_OPS:
            for side in (node.left, node.right):
                ty = self._deref(self._check_expr(side, T.BOOL))
                self._coerce(side, ty, T.BOOL, node.line)
            return T.BOOL

        left_ty = self._deref(self._check_expr(
            node.left, expected if node.op in _ARITH_OPS else None))
        # literals on the left adopt the right side's type
        if isinstance(node.left, ast.IntLit):
            right_ty = self._deref(self._check_expr(
                node.right,
                expected if node.op in _ARITH_OPS else None))
            left_ty = self._coerce(node.left, left_ty, right_ty,
                                   node.line) if T.is_int(right_ty) \
                else left_ty
        else:
            right_ty = self._deref(self._check_expr(node.right,
                                                    left_ty))
            right_ty = self._coerce(node.right, right_ty, left_ty,
                                    node.line)

        if node.op in _CMP_OPS:
            if left_ty in (T.BOOL, T.STR) and node.op in ("==", "!="):
                return T.BOOL
            if not T.is_int(left_ty):
                self._fail(node.line, f"cannot compare {left_ty!r}")
            return T.BOOL
        if node.op in _ARITH_OPS:
            if not T.is_int(left_ty):
                self._fail(node.line,
                           f"arithmetic requires integers, got "
                           f"{left_ty!r}")
            return left_ty
        self._fail(node.line, f"unknown operator {node.op!r}")
        raise AssertionError  # pragma: no cover

    def _infer_borrow(self, node: ast.Borrow) -> T.Ty:
        if not isinstance(node.operand, ast.Name):
            self._fail(node.line, "can only borrow a variable")
        info = self._lookup(node.operand.ident)
        if info is None:
            self._fail(node.line,
                       f"undeclared name {node.operand.ident!r}")
        if node.mut and not info.mut:
            self._fail(node.line,
                       f"cannot borrow {node.operand.ident!r} as "
                       "mutable: not declared mut")
        self._check_expr(node.operand)
        return T.RefTy(info.ty, mut=node.mut)

    def _infer_call(self, node: ast.Call) -> T.Ty:
        api_fn = self.api.functions.get(node.func)
        if api_fn is not None:
            params, ret = api_fn.params, api_fn.ret
        elif node.func in self.fn_sigs:
            sig = self.fn_sigs[node.func]
            params, ret = sig.params, sig.ret
        else:
            self._fail(node.line, f"unknown function {node.func!r}")
        if len(node.args) != len(params):
            self._fail(node.line,
                       f"{node.func} expects {len(params)} args, got "
                       f"{len(node.args)}")
        for arg, param_ty in zip(node.args, params):
            arg_ty = self._check_expr(arg, expected=param_ty)
            self._coerce(arg, arg_ty, param_ty, node.line)
        return ret

    def _infer_method(self, node: ast.MethodCall) -> T.Ty:
        recv_ty = self._check_expr(node.receiver)
        option_ty = recv_ty.inner if isinstance(recv_ty, T.RefTy) \
            else recv_ty
        if isinstance(option_ty, T.OptionTy):
            return self._infer_option_method(node, option_ty)
        method = self.api.method_for(recv_ty, node.method)
        if method is None:
            self._fail(node.line,
                       f"type {recv_ty!r} has no method "
                       f"{node.method!r}")
        if len(node.args) != len(method.params):
            self._fail(node.line,
                       f"{node.method} expects {len(method.params)} "
                       f"args, got {len(node.args)}")
        for arg, param_ty in zip(node.args, method.params):
            arg_ty = self._check_expr(arg, expected=param_ty)
            self._coerce(arg, arg_ty, param_ty, node.line)
        return method.ret

    def _infer_option_method(self, node: ast.MethodCall,
                             option_ty: T.OptionTy) -> T.Ty:
        """Built-in Option combinators: is_some, is_none, unwrap_or."""
        if node.method in ("is_some", "is_none"):
            if node.args:
                self._fail(node.line,
                           f"{node.method} takes no arguments")
            return T.BOOL
        if node.method == "unwrap_or":
            if len(node.args) != 1:
                self._fail(node.line, "unwrap_or takes one argument")
            if not option_ty.inner.is_copy():
                self._fail(node.line,
                           "unwrap_or requires a Copy inner type "
                           "(use match for resources)")
            arg_ty = self._check_expr(node.args[0],
                                      expected=option_ty.inner)
            self._coerce(node.args[0], arg_ty, option_ty.inner,
                         node.line)
            return option_ty.inner
        self._fail(node.line,
                   f"Option has no method {node.method!r}")
        raise AssertionError  # pragma: no cover

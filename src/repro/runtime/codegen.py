"""IR → Python source generation for the compiled execution backend.

The emitter lowers one (possibly instrumented) program to the source of
a single Python function ``_kernel(_rt)`` whose observable behaviour is
**bit-identical** to :class:`~repro.runtime.interpreter.Interpreter`:

* loads and stores happen in the interpreter's order, and every
  *watched* access goes through the same :class:`Memory` methods with
  ``load_count``/``store_count`` equal to the interpreter's, so fault
  injectors trigger on exactly the same access (the injector's trigger
  is a load-event index — ordering is part of the contract, not an
  implementation detail); this covers the address-redirect hooks too:
  a redirected access lands on the same cell under either backend,
  and the fused ``load_bits_addr``/``store_bits_addr`` calls return
  the **intended** (architectural) address — exactly what the
  interpreter's separate ``address_of`` on the intended indices
  yields — so checksum streams stay bit-identical under
  address-generation faults;
* :class:`~repro.runtime.costmodel.OpCounts` accumulate in local
  integers and are spilled into the shared context once, in a
  ``finally`` block, so partial counts survive step-limit aborts;
* the statement step counter, bundle load cache, halt-on-mismatch
  unwind and checksum contribution order all replicate the interpreter
  statement by statement.

The strategy is three-address-code style: every counted operation's
operands are materialized as *atoms* (constants, ``v_<name>`` locals or
``_t<n>`` temporaries) so that counting code can mention them without
re-evaluating anything.  Where the operand types are statically known
(region element types, loop iterators, literals) the float/int
classification of :meth:`Interpreter._count_arith` is resolved at
compile time; otherwise a runtime ``isinstance`` check is emitted that
mirrors the interpreter exactly.

On top of that baseline the emitter runs the optimization pipeline of
:mod:`repro.runtime.opt` when given a non-trivial :class:`OptConfig`:

* **count coalescing / folding** — pure subexpressions fold to single
  Python expressions and their statically known count vectors are
  buffered and flushed as one merged ``_n_* += k`` line per basic
  block.  Pending counts are always materialized before any point
  where a ``ChecksumAssert`` could raise ``_Halt`` (the only unwind
  that still returns a result) and at every divergent-control suite
  boundary; aborting exceptions (``StepLimitExceeded``,
  ``InterpreterError``, strict memory errors) discard the result, so
  they need no flush.  Folded *raising* atoms (``/``/``%`` by zero)
  are materialized at the interpreter's exact evaluation point so
  error order is preserved; non-raising folds may move freely.
* **LICM** — loop-invariant non-raising folded values are computed in
  a per-loop preamble (speculatively: they are pure, so evaluating
  them for a zero-trip loop is unobservable).  Counts are *not*
  hoisted — they accrue at each use site exactly as interpreted.
* **guard fusion** — an ``&&`` conjunction of pure leaves (the guard
  chains index-set splitting emits) compiles to one merged range test;
  the interpreter's per-leaf count scenarios are replayed from a
  compile-time simulation on whichever side the test lands.
* **unrolling** — constant-trip loops up to ``UNROLL_LIMIT`` and
  provably 0/1-trip loops (the ``min``/``max``-clamped degenerate
  split pieces) lose their ``for`` machinery.
* **static bundle-cache elimination** — when affine analysis decides
  every bundle-cache hit/miss at compile time, the runtime dict
  disappears and cache hits re-count their index arithmetic without
  touching memory, exactly as the interpreter's dict hit would.
* **inlined memory** (level 2) — in-bounds loads and stores of rank
  ≤ 2 regions index the region's word list directly, counting in the
  locals ``_lc``/``_sc``, while the access ordinal is below the
  attached injector's :meth:`~repro.runtime.faults.FaultInjector.watch`
  answer (``_nl``/``_ns``; "never" without an injector).  A watched or
  out-of-bounds access takes ``_xld``/``_xst``: the counters are synced
  into :class:`Memory`, its method runs every hook, redirect and
  wild-access rule, and the counters and watch answer are read back.
  Levels 0 and 1 call the :class:`Memory` methods on every access.

Programs using features the emitter does not model (``register_budget``
spill simulation is handled one level up, in
:mod:`repro.runtime.compile`) raise :class:`CompileError`; callers fall
back to the interpreter.
"""

from __future__ import annotations

import re

from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    ChecksumAdd,
    ChecksumAssert,
    ChecksumReset,
    Const,
    CounterIncrement,
    Expr,
    If,
    Loop,
    Program,
    Select,
    Stmt,
    UnOp,
    VarRef,
    WhileLoop,
    walk_expressions,
)
from repro.runtime.opt import (
    COUNTERS as _COUNTERS,
    OptConfig,
    UNROLL_LIMIT,
    analyze_guard_chain,
    fuse_condition,
    loop_trip_at_most_one,
    loop_trip_constant,
    ref_affine_key,
    try_fold,
)
from repro.runtime.state import _valid_name

MASK64 = (1 << 64) - 1

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_FP_BUCKET = {
    "+": "_n_fp_adds",
    "-": "_n_fp_adds",
    "*": "_n_fp_muls",
    "/": "_n_fp_divs",
    "%": "_n_fp_divs",
}

_SIMPLE_ATOM = re.compile(r"^(?:[A-Za-z_]\w*|-?\d+)$")
_FREE_VARS = re.compile(r"\bv_(\w+)")


class CompileError(Exception):
    """The program uses a construct the codegen backend cannot lower."""


def _pytype(elem_type: str) -> str:
    if elem_type == "f64":
        return "float"
    if elem_type == "i64":
        return "int"
    raise CompileError(f"unknown element type {elem_type!r}")


class _Frame:
    """One LICM hoisting target: the preamble of one loop statement."""

    __slots__ = ("var", "depth", "preamble", "cache", "outer")

    def __init__(self, var: str | None, depth: int, outer: list[str]) -> None:
        self.var = var
        self.depth = depth
        self.preamble: list[str] = []
        self.cache: dict[str, str] = {}
        self.outer = outer


class _Emitter:
    """Stateful line emitter for one program."""

    def __init__(self, program: Program, opt: OptConfig | None = None) -> None:
        self.program = program
        self.opt = opt if opt is not None else OptConfig()
        self.lines: list[str] = []
        self.depth = 1
        self._temp = 0
        self.scalar_types = {d.name: d.elem_type for d in program.scalars}
        self.array_types = {d.name: d.elem_type for d in program.arrays}
        # Names resolvable without touching memory: parameters plus the
        # loop iterators of enclosing loops.  The interpreter looks these
        # up in ``_env`` before falling back to a scalar load, and a loop
        # variable is always in ``_env`` while its body runs — so static
        # lexical resolution gives the same answer.
        self.bound: set[str] = set(program.params)
        # Per-bundle compile-time memo: syntactically identical data
        # references whose indices are count-free atoms resolve to the
        # same runtime cache key, so the interpreter's second access is
        # always a cache hit with no observable effect — the emitted
        # code can reuse the first load's atoms outright.
        self._memo: dict | None = None
        # Inside a conditionally executed expression region (select
        # branch, short-circuit right operand) memo entries must not be
        # created: the load may not have happened on this path.
        self._cond_depth = 0
        # Pending (compile-time constant) count increments, flushed as
        # one merged line per basic block; ``_pend_ch`` counts pending
        # multiples of the runtime ``_channels`` for checksum_ops.
        self._pend: dict[str, int] = {}
        self._pend_ch = 0
        # Static bundle cache (affine symbolic simulation of the
        # interpreter's per-bundle load cache); ``None`` → dynamic.
        self._symcache: dict | None = None
        # LICM frame stack (innermost last).
        self.frames: list[_Frame] = []
        self._hoist_n = 0
        # Level 2 inlines memory: name -> (local index, rank) of the
        # regions whose in-bounds, unwatched accesses index the word
        # list directly.  Every other access of an inlining kernel
        # takes the synced ``_xld``/``_xst`` Memory path.
        self.inline = self.opt.level >= 2
        self._region_local: dict[str, tuple[int, int]] = {}
        if self.inline:
            decls = list(program.arrays) + list(program.scalars)
            for i, decl in enumerate(decls):
                rank = len(getattr(decl, "dims", ()) or ())
                if rank <= 2:
                    self._region_local[decl.name] = (i, rank)

    # -- low-level helpers ------------------------------------------------
    def out(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def tmp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def _as_int(self, atom: str, typ: str) -> str:
        return atom if typ == "int" else f"int({atom})"

    def _simple(self, atom: str) -> str:
        """Materialize a compound atom into a temp for repeated use."""
        if _SIMPLE_ATOM.match(atom):
            return atom
        t = self.tmp()
        self.out(f"{t} = {atom}")
        return t

    def _elem_type(self, name: str) -> str:
        if name in self.array_types:
            return self.array_types[name]
        if name in self.scalar_types:
            return self.scalar_types[name]
        raise CompileError(f"no region {name!r} declared")

    def _decode(self, bits_atom: str, elem_type: str) -> str:
        if elem_type == "f64":
            return f"_unpd(_pkq({bits_atom}))[0]"
        if elem_type == "i64":
            return (
                f"({bits_atom} - 18446744073709551616 "
                f"if {bits_atom} >= 9223372036854775808 else {bits_atom})"
            )
        raise CompileError(f"unknown element type {elem_type!r}")

    def _encode(self, value_atom: str, value_type: str, elem_type: str) -> str:
        if elem_type == "f64":
            inner = value_atom if value_type == "float" else f"float({value_atom})"
            return f"_unpq(_pkd({inner}))[0]"
        if elem_type == "i64":
            inner = value_atom if value_type == "int" else f"int({value_atom})"
            return f"{inner} & 18446744073709551615"
        raise CompileError(f"unknown element type {elem_type!r}")

    # -- pending counter buffer -------------------------------------------
    def count(self, bucket: str, n: int = 1) -> None:
        """Record ``n`` interpreter count units for ``bucket``.

        With folding enabled the increment is buffered and later merged
        into one flush line; otherwise it is emitted immediately (the
        level-0 reference emission).  Callers must only use this for
        increments that are *unconditional* at the current emission
        point — runtime-conditional counts (dynamic cache miss arms,
        channel-dependent totals) are emitted directly.
        """
        if not n:
            return
        if self.opt.fold:
            self._pend[bucket] = self._pend.get(bucket, 0) + n
        else:
            self.out(f"_n_{bucket} += {n}" if n != 1 else f"_n_{bucket} += 1")

    def count_channels(self, n: int = 1) -> None:
        """``checksum_ops += n * _channels`` (runtime channel count)."""
        if self.opt.fold:
            self._pend_ch += n
        else:
            self.out(
                "_n_checksum_ops += _channels"
                if n == 1
                else f"_n_checksum_ops += {n} * _channels"
            )

    def flush(self) -> None:
        """Materialize pending counts as one merged increment line."""
        parts = []
        for bucket in _COUNTERS:
            value = self._pend.get(bucket)
            if value:
                parts.append(f"_n_{bucket} += {value}")
        if self._pend_ch:
            parts.append(
                "_n_checksum_ops += _channels"
                if self._pend_ch == 1
                else f"_n_checksum_ops += {self._pend_ch} * _channels"
            )
        self._pend.clear()
        self._pend_ch = 0
        if parts:
            self.out("; ".join(parts))

    def _arm_begin(self) -> tuple[dict[str, int], int, int]:
        """Enter a conditionally executed suite: its counts must land
        inside the suite, so give it a fresh pending buffer."""
        saved = (self._pend, self._pend_ch, len(self.lines))
        self._pend = {}
        self._pend_ch = 0
        return saved

    def _arm_end(self, saved) -> None:
        """Flush the arm's own counts inside the suite and restore the
        caller's buffer (emitting ``pass`` for an empty suite)."""
        pend, pend_ch, mark = saved
        self.flush()
        if len(self.lines) == mark:
            self.out("pass")
        self._pend = pend
        self._pend_ch = pend_ch

    # -- LICM frames -------------------------------------------------------
    def _push_frame(self, var: str | None) -> _Frame | None:
        if not self.opt.licm:
            return None
        frame = _Frame(var, self.depth, self.lines)
        self.frames.append(frame)
        self.lines = []
        return frame

    def _pop_frame(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        self.frames.pop()
        body = self.lines
        self.lines = frame.outer
        pad = "    " * frame.depth
        self.lines.extend(pad + line for line in frame.preamble)
        self.lines.extend(body)

    def _hoist_to(
        self, atom: str, free: frozenset[str] | set[str], min_frames: int = 0
    ) -> str:
        """Hoist a pure non-raising value atom to the outermost frame
        it is invariant in; counts are never hoisted (they stay at the
        use site), so speculative evaluation is unobservable."""
        target = None
        for frame in reversed(self.frames):
            if frame.var is not None and frame.var in free:
                break
            target = frame
        if target is None:
            return atom
        if target.var is None and target is self.frames[-1]:
            # Top-level straight-line code: nothing to hoist out of.
            return atom
        name = target.cache.get(atom)
        if name is None:
            self._hoist_n += 1
            name = f"_h{self._hoist_n}"
            target.cache[atom] = name
            target.preamble.append(f"{name} = {atom}")
        return name

    def _hoist_atom(self, atom: str) -> str:
        """Best-effort hoist of a scaffolding atom (fused guard bounds):
        pure affine/min/max forms whose free variables are exactly the
        ``v_`` names it mentions."""
        if not self.opt.licm or not self.frames or _SIMPLE_ATOM.match(atom):
            return atom
        free = set(_FREE_VARS.findall(atom))
        return self._hoist_to(atom, free)

    # -- folding -----------------------------------------------------------
    def _use_folded(self, f, condition: bool = False) -> str:
        """Account a folded expression's counts and return its atom.

        Raising atoms are materialized immediately so a division/modulo
        error aborts at the interpreter's exact evaluation point (no
        load may be reordered before it); non-raising atoms are pure
        and may be inlined or hoisted freely.
        """
        for bucket, n in f.counts:
            self.count(bucket, n)
        if f.raising:
            t = self.tmp()
            self.out(f"{t} = {f.atom}")
            return t
        atom = f.condition if condition else f.atom
        if self.opt.licm and f.complexity >= 3 and self.frames:
            return self._hoist_to(atom, f.free)
        return atom

    # -- data references --------------------------------------------------
    def _index_atoms(self, indices, cache) -> list[str]:
        """Int-converted index atoms (evaluated in order)."""
        return [
            self._as_int(*self.eval_expr(index, cache)) for index in indices
        ]

    @staticmethod
    def _tuple_atom(atoms: list[str]) -> str:
        if not atoms:
            return "()"
        return "(" + ", ".join(atoms) + ",)"

    def _memoizable(self, ref) -> bool:
        """Re-evaluating this ref's indices has no observable effect.

        The interpreter re-evaluates index expressions on every cache
        access, which re-counts their arithmetic; only refs indexed by
        bare iterators/params or literals may skip that re-evaluation.
        """
        if isinstance(ref, VarRef):
            return True
        return all(
            isinstance(index, Const)
            or (isinstance(index, VarRef) and index.name in self.bound)
            for index in ref.indices
        )

    def _invalidate_memo(self, name: str) -> None:
        """Drop memo entries that may alias a freshly stored cell."""
        if self._memo:
            for ref in [
                r
                for r in self._memo
                if (r.array if isinstance(r, ArrayRef) else r.name) == name
            ]:
                del self._memo[ref]

    # -- raw memory access -------------------------------------------------
    def _emit_raw_load(
        self, name: str, idx_atoms: list[str], need_addr: bool
    ) -> tuple[str, str | None]:
        """Emit one load event; returns ``(bits_atom, addr_atom)``.

        Memory-side load counting is handled here (the inline arm bumps
        the local ``_lc``; the Memory path counts itself) — OpCounts'
        ``loads`` bucket is the caller's job.
        """
        bits = self.tmp()
        addr = self.tmp() if need_addr else None
        if not self.inline:
            idx = self._tuple_atom(idx_atoms)
            if need_addr:
                self.out(f"{bits}, {addr} = _lba({name!r}, {idx})")
            else:
                self.out(f"{bits} = _lb({name!r}, {idx})")
            return bits, addr
        info = self._inline_region(name, idx_atoms)
        if info is None:
            self.out(self._watched_load(name, idx_atoms, bits, addr))
            return bits, addr
        ri, rank = info
        atoms = [self._simple(a) for a in idx_atoms]
        off = self._open_inline_arm(ri, atoms, "_lc < _nl")
        self.out(f"    _lc += 1; {bits} = _w{ri}[{off}]")
        if rank == 0:
            # A scalar's address is its base on either arm.
            addr = f"_b{ri}" if need_addr else None
        elif need_addr:
            self.out(f"    {addr} = _b{ri} + {off} * 8")
        self.out("else:")
        self.out(
            "    "
            + self._watched_load(name, atoms, bits, addr if rank else None)
        )
        return bits, addr

    def _emit_raw_store(
        self, name: str, idx_atoms: list[str], bits_atom: str, need_addr: bool
    ) -> str | None:
        """Emit one store event (``bits_atom`` must be pre-masked);
        returns the address atom when requested."""
        addr = self.tmp() if need_addr else None
        if not self.inline:
            idx = self._tuple_atom(idx_atoms)
            if need_addr:
                self.out(f"{addr} = _sba({name!r}, {idx}, {bits_atom})")
            else:
                self.out(f"_sb({name!r}, {idx}, {bits_atom})")
            return addr
        info = self._inline_region(name, idx_atoms)
        if info is None:
            self.out(self._watched_store(name, idx_atoms, bits_atom, addr))
            return addr
        ri, rank = info
        atoms = [self._simple(a) for a in idx_atoms]
        off = self._open_inline_arm(ri, atoms, "_sc < _ns")
        self.out(
            f"    _sc += 1; _w{ri}[{off}] = {bits_atom}; _R{ri}.version += 1"
        )
        if rank == 0:
            addr = f"_b{ri}" if need_addr else None
        elif need_addr:
            self.out(f"    {addr} = _b{ri} + {off} * 8")
        self.out("else:")
        self.out(
            "    "
            + self._watched_store(
                name, atoms, bits_atom, addr if rank else None
            )
        )
        return addr

    def _inline_region(
        self, name: str, idx_atoms: list[str]
    ) -> tuple[int, int] | None:
        """``(local index, rank)`` when this access has an inline arm."""
        info = self._region_local.get(name)
        if info is None or info[1] != len(idx_atoms):
            return None
        return info

    def _open_inline_arm(self, ri: int, atoms: list[str], test: str) -> str:
        """Emit ``if <in bounds> and <test>:`` for one access of region
        ``ri`` (plus the rank-2 offset line); returns the word offset."""
        if not atoms:
            self.out(f"if {test}:")
            return "0"
        if len(atoms) == 1:
            self.out(f"if 0 <= {atoms[0]} < _d{ri}_0 and {test}:")
            return atoms[0]
        i, j = atoms
        self.out(
            f"if 0 <= {i} < _d{ri}_0 and 0 <= {j} < _d{ri}_1 and {test}:"
        )
        off = self.tmp()
        self.out(f"    {off} = {i} * _d{ri}_1 + {j}")
        return off

    def _watched_load(
        self, name: str, atoms: list[str], bits: str, addr: str | None
    ) -> str:
        """The Memory path of an inlining kernel: counters synced in and
        out, hooks run, the watch answer re-read."""
        return (
            f"{bits}, {addr or '_'}, _lc, _sc, _nl, _ns = "
            f"_xld(_mem, {name!r}, {self._tuple_atom(atoms)}, _lc, _sc)"
        )

    def _watched_store(
        self, name: str, atoms: list[str], bits: str, addr: str | None
    ) -> str:
        return (
            f"{addr or '_'}, _lc, _sc, _nl, _ns = _xst(_mem, {name!r}, "
            f"{self._tuple_atom(atoms)}, {bits}, _lc, _sc)"
        )

    def _load_counter(self, name: str, idx_atoms: list[str]) -> str:
        """One shadow-counter load with ``Memory.load``'s typed
        semantics; returns the int value atom."""
        elem_type = self._elem_type(name)
        bits, _ = self._emit_raw_load(name, idx_atoms, need_addr=False)
        value = self._decode(bits, elem_type)
        cur = self.tmp()
        self.out(f"{cur} = {value if elem_type == 'i64' else f'int({value})'}")
        return cur

    def _store_counter(
        self, name: str, idx_atoms: list[str], value_atom: str
    ) -> None:
        """One shadow-counter store of an int with ``Memory.store``'s
        typed semantics."""
        bits = self.tmp()
        self.out(
            f"{bits} = "
            f"{self._encode(value_atom, 'int', self._elem_type(name))}"
        )
        self._emit_raw_store(name, idx_atoms, bits, need_addr=False)

    # -- bundle cache planning --------------------------------------------
    def _scan_reads(self, expr, conditional: bool, reads: list) -> None:
        """Collect data-reference read events (with a flag for reads on
        conditionally executed paths) from one expression tree."""
        if isinstance(expr, Const):
            return
        if isinstance(expr, VarRef):
            if expr.name not in self.bound and (
                expr.name in self.scalar_types or expr.name in self.array_types
            ):
                reads.append((expr, conditional))
            return
        if isinstance(expr, ArrayRef):
            reads.append((expr, conditional))
            for index in expr.indices:
                self._scan_reads(index, conditional, reads)
            return
        if isinstance(expr, BinOp):
            cond_right = conditional or expr.op in ("&&", "||")
            self._scan_reads(expr.left, conditional, reads)
            self._scan_reads(expr.right, cond_right, reads)
            return
        if isinstance(expr, UnOp):
            self._scan_reads(expr.operand, conditional, reads)
            return
        if isinstance(expr, Call):
            for arg in expr.args:
                self._scan_reads(arg, conditional, reads)
            return
        if isinstance(expr, Select):
            self._scan_reads(expr.cond, conditional, reads)
            self._scan_reads(expr.if_true, True, reads)
            self._scan_reads(expr.if_false, True, reads)
            return
        # Unknown node: emission will raise CompileError; treat as a
        # conditional read so planning stays conservative.
        reads.append((None, True))

    def _ref_key(self, ref):
        return ref_affine_key(ref, self.bound, self.scalar_types)

    def _begin_bundle(self, exprs, explicit_reads=(), writes=()) -> bool:
        """Choose the bundle's load-cache strategy and open the bundle.

        Returns whether the *dynamic* runtime cache dict is live (the
        pre-optimizer machinery: ``_bc`` dict plus store pops).  In
        static mode :attr:`_symcache` simulates the interpreter's cache
        at compile time; with no reads at all no cache exists.
        """
        reads: list = []
        for expr in exprs:
            self._scan_reads(expr, False, reads)
        for ref in explicit_reads:
            # Explicit reads load even when a loop variable shadows the
            # scalar name (the interpreter's _is_data_ref checks the
            # declaration before the environment).
            reads.append((ref, False))
            if isinstance(ref, ArrayRef):
                for index in ref.indices:
                    self._scan_reads(index, False, reads)
        self._memo = {}
        self._symcache = None
        if not reads:
            return False
        static = False
        if self.opt.static_cache:
            if len(reads) == 1:
                # A single read event can never hit any cache: it is
                # always the bundle's first (and only) load.
                static = True
            elif all(ref is not None and not c for ref, c in reads):
                keys = []
                ok = True
                for ref, _ in reads:
                    key = self._ref_key(ref)
                    if key is None:
                        ok = False
                        break
                    if isinstance(ref, ArrayRef) and any(
                        try_fold(index, self.bound) is None
                        for index in ref.indices
                    ):
                        ok = False
                        break
                    keys.append(key)
                if ok:
                    for ref in writes:
                        if ref is None:
                            continue
                        key = self._ref_key(ref)
                        if key is None:
                            ok = False
                            break
                        keys.append(key)
                if ok:
                    from repro.runtime.opt import keys_never_alias

                    static = all(
                        a == b or keys_never_alias(a, b)
                        for m, a in enumerate(keys)
                        for b in keys[m + 1 :]
                    )
        if static:
            self._symcache = {}
            self._memo = None
            return False
        self.out("_bc = {}")
        return True

    def _end_bundle(self) -> None:
        self._symcache = None
        self._memo = None

    def _pop_store_key(self, ref, cached: bool, tname: str, tidx: str) -> None:
        """Invalidate the stored cell's cache entry (both cache modes)."""
        if self._symcache is not None:
            key = self._ref_key(ref)
            if key is not None:
                self._symcache.pop(key, None)
            # A non-affine store key can only occur in a single-read
            # bundle, where no later read exists to observe staleness.
            return
        if cached:
            self.out(f"_bc.pop(({tname!r}, {tidx}), None)")
        self._invalidate_memo(tname)

    # -- loads -------------------------------------------------------------
    def load_ref(
        self, ref, cache: str | None, need_value: bool = True,
        need_addr: bool = False,
    ):
        """Emit a load of a data reference.

        Returns ``(value, bits, address, type)`` atom strings; value and
        address are only guaranteed materialized when requested (the
        interpreter's cached loads always compute the address, but it
        is observable only through checksum contributions — and
        ``Memory.address_of`` is pure and uncounted, so deferring it is
        invisible).
        """
        if self._symcache is not None:
            return self._load_ref_static(ref, need_value, need_addr)
        memoizable = (
            cache is not None
            and self._memo is not None
            and self._memoizable(ref)
        )
        if memoizable:
            hit4 = self._memo.get(ref)
            if hit4 is not None:
                return hit4
        if isinstance(ref, ArrayRef):
            name = ref.array
            idx_atoms = self._index_atoms(ref.indices, cache)
        else:
            name = ref.name
            if name not in self.scalar_types and name not in self.array_types:
                raise CompileError(f"unbound data reference {name!r}")
            idx_atoms = []
        elem_type = self._elem_type(name)
        if cache is None:
            bits, _ = self._emit_raw_load(name, idx_atoms, need_addr=False)
            self.count("loads")
            value = self.tmp()
            self.out(f"{value} = {self._decode(bits, elem_type)}")
            return value, bits, "None", _pytype(elem_type)
        key = self.tmp()
        hit = self.tmp()
        self.out(f"{key} = ({name!r}, {self._tuple_atom(idx_atoms)})")
        self.out(f"{hit} = {cache}.get({key})")
        self.out(f"if {hit} is None:")
        self.depth += 1
        bits, addr = self._emit_raw_load(name, idx_atoms, need_addr=True)
        self.out("_n_loads += 1")
        self.out(f"{hit} = ({self._decode(bits, elem_type)}, {bits}, {addr})")
        self.out(f"{cache}[{key}] = {hit}")
        self.depth -= 1
        result = (
            f"{hit}[0]",
            f"{hit}[1]",
            f"{hit}[2]",
            _pytype(elem_type),
        )
        if memoizable and self._cond_depth == 0:
            self._memo[ref] = result
        return result

    def _load_ref_static(self, ref, need_value: bool, need_addr: bool):
        """Static-cache load: the hit/miss decision was made at compile
        time, so a hit emits no memory traffic at all — only the index
        re-evaluation counts the interpreter's dict hit would accrue."""
        if isinstance(ref, ArrayRef):
            name = ref.array
            indices = ref.indices
        else:
            name = ref.name
            if name not in self.scalar_types and name not in self.array_types:
                raise CompileError(f"unbound data reference {name!r}")
            indices = ()
        elem_type = self._elem_type(name)
        key = self._ref_key(ref)
        entry = self._symcache.get(key) if key is not None else None
        if entry is not None:
            # Cache hit: the interpreter re-evaluates the index
            # expressions to build the runtime key (re-counting their
            # arithmetic) and touches nothing else.
            for index in indices:
                folded = try_fold(index, self.bound)
                for bucket, n in folded.counts:
                    self.count(bucket, n)
            value = entry["value"]
            if need_value and value is None:
                value = self.tmp()
                self.out(f"{value} = {self._decode(entry['bits'], elem_type)}")
                entry["value"] = value
            addr = entry["addr"]
            if need_addr and addr is None:
                addr = self.tmp()
                self.out(f"{addr} = _adr({name!r}, {entry['idx']})")
                entry["addr"] = addr
            return (
                value if value is not None else "None",
                entry["bits"],
                addr if addr is not None else "None",
                _pytype(elem_type),
            )
        idx_atoms = self._index_atoms(indices, None)
        bits, addr = self._emit_raw_load(name, idx_atoms, need_addr=need_addr)
        self.count("loads")
        value = None
        if need_value:
            value = self.tmp()
            self.out(f"{value} = {self._decode(bits, elem_type)}")
        entry = {
            "bits": bits,
            "addr": addr,
            "value": value,
            "idx": self._tuple_atom(idx_atoms),
        }
        if key is not None and self._cond_depth == 0:
            self._symcache[key] = entry
        return (
            value if value is not None else "None",
            bits,
            addr if addr is not None else "None",
            _pytype(elem_type),
        )

    # -- expressions ------------------------------------------------------
    def eval_expr(self, expr: Expr, cache: str | None) -> tuple[str, str]:
        """Emit evaluation code; return ``(atom, type)`` with type one of
        ``"int"``, ``"float"``, ``"dyn"``."""
        if self.opt.fold:
            folded = try_fold(expr, self.bound)
            if folded is not None:
                return self._use_folded(folded), folded.typ
        return self._eval_dispatch(expr, cache)

    def eval_cond(self, expr: Expr, cache: str | None) -> str:
        """Like :meth:`eval_expr` but in condition position: a folded
        comparison keeps its raw (un-reified) boolean form."""
        if self.opt.fold:
            folded = try_fold(expr, self.bound)
            if folded is not None:
                return self._use_folded(folded, condition=True)
        return self._eval_dispatch(expr, cache)[0]

    def _eval_dispatch(self, expr: Expr, cache: str | None) -> tuple[str, str]:
        if isinstance(expr, Const):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, (int, float)
            ):
                raise CompileError(f"unsupported constant {expr.value!r}")
            typ = "float" if isinstance(expr.value, float) else "int"
            return repr(expr.value), typ
        if isinstance(expr, VarRef):
            if expr.name in self.bound:
                return f"v_{expr.name}", "int"
            if expr.name in self.scalar_types:
                value, _, _, typ = self.load_ref(expr, cache)
                return value, typ
            raise CompileError(f"unbound name {expr.name!r}")
        if isinstance(expr, ArrayRef):
            value, _, _, typ = self.load_ref(expr, cache)
            return value, typ
        if isinstance(expr, BinOp):
            return self._emit_binop(expr, cache)
        if isinstance(expr, UnOp):
            return self._emit_unop(expr, cache)
        if isinstance(expr, Call):
            return self._emit_call(expr, cache)
        if isinstance(expr, Select):
            return self._emit_select(expr, cache)
        raise CompileError(f"cannot compile expression {expr!r}")

    def _emit_count_arith(self, op: str, la: str, lt: str, ra: str, rt: str):
        bucket = _ARITH_FP_BUCKET[op]
        if lt == "float" or rt == "float":
            self.count(bucket[3:])
        elif lt == "int" and rt == "int":
            self.count("int_ops")
        else:
            self.flush()
            self.out(f"if isinstance({la}, float) or isinstance({ra}, float):")
            self.out(f"    {bucket} += 1")
            self.out("else:")
            self.out("    _n_int_ops += 1")

    def _emit_binop(self, expr: BinOp, cache) -> tuple[str, str]:
        op = expr.op
        res = self.tmp()
        if op in ("&&", "||"):
            la, _ = self.eval_expr(expr.left, cache)
            self.count("branches")
            if op == "&&":
                self.out(f"if {la}:")
                self.depth += 1
                saved = self._arm_begin()
                self._cond_depth += 1
                ra, _ = self.eval_expr(expr.right, cache)
                self._cond_depth -= 1
                self.out(f"{res} = 1 if {ra} else 0")
                self._arm_end(saved)
                self.depth -= 1
                self.out("else:")
                self.out(f"    {res} = 0")
            else:
                self.out(f"if {la}:")
                self.out(f"    {res} = 1")
                self.out("else:")
                self.depth += 1
                saved = self._arm_begin()
                self._cond_depth += 1
                ra, _ = self.eval_expr(expr.right, cache)
                self._cond_depth -= 1
                self.out(f"{res} = 1 if {ra} else 0")
                self._arm_end(saved)
                self.depth -= 1
            return res, "int"
        la, lt = self.eval_expr(expr.left, cache)
        ra, rt = self.eval_expr(expr.right, cache)
        if op in _CMP_OPS:
            self.count("int_ops")
            self.out(f"{res} = 1 if {la} {op} {ra} else 0")
            return res, "int"
        if op not in _ARITH_FP_BUCKET:
            raise CompileError(f"unknown binary op {op!r}")
        self._emit_count_arith(op, la, lt, ra, rt)
        if lt == "int" and rt == "int":
            rtype = "int"
        elif lt == "float" or rt == "float":
            rtype = "float"
        else:
            rtype = "dyn"
        if op in ("+", "-", "*"):
            self.out(f"{res} = {la} {op} {ra}")
        elif op == "/":
            if rtype == "int":
                self.out(f"{res} = _idiv({la}, {ra})")
            elif rtype == "float":
                self.out(f"{res} = _fdiv({la}, {ra})")
            else:
                self.out(f"{res} = _xdiv({la}, {ra})")
        else:  # "%"
            self.out(f"{res} = _rmod({la}, {ra})")
        return res, rtype

    def _emit_unop(self, expr: UnOp, cache) -> tuple[str, str]:
        oa, ot = self.eval_expr(expr.operand, cache)
        res = self.tmp()
        if expr.op == "-":
            # _count_arith("-", operand, 0): the literal 0 is an int, so
            # the classification depends only on the operand.
            if ot == "float":
                self.count("fp_adds")
            elif ot == "int":
                self.count("int_ops")
            else:
                self.flush()
                self.out(f"if isinstance({oa}, float):")
                self.out("    _n_fp_adds += 1")
                self.out("else:")
                self.out("    _n_int_ops += 1")
            self.out(f"{res} = -({oa})")
            return res, ot
        if expr.op == "!":
            self.count("int_ops")
            self.out(f"{res} = 0 if {oa} else 1")
            return res, "int"
        raise CompileError(f"unknown unary op {expr.op!r}")

    def _emit_call(self, expr: Call, cache) -> tuple[str, str]:
        evaluated = [self.eval_expr(arg, cache) for arg in expr.args]
        atoms = [atom for atom, _ in evaluated]
        func = expr.func
        res = self.tmp()
        arity = {"mod": 2}.get(func, 1)
        if func in ("min", "max"):
            if not atoms:
                raise CompileError(f"{func}() needs at least one argument")
        elif len(atoms) < arity:
            raise CompileError(f"{func}() needs {arity} argument(s)")
        if func == "sqrt":
            self.count("fp_sqrts")
            self.out(f"{res} = _rsqrt({atoms[0]})")
            return res, "float"
        if func == "abs":
            self.count("fp_others")
            self.out(f"{res} = abs({atoms[0]})")
            return res, evaluated[0][1]
        if func in ("min", "max"):
            self.count("int_ops")
            if len(atoms) == 1:
                self.out(f"{res} = {atoms[0]}")
                return res, evaluated[0][1]
            self.out(f"{res} = {func}({', '.join(atoms)})")
            types = {typ for _, typ in evaluated}
            return res, types.pop() if len(types) == 1 else "dyn"
        if func == "exp":
            self.count("fp_others")
            self.out(f"{res} = _rexp({atoms[0]})")
            return res, "float"
        if func == "sin":
            self.count("fp_others")
            self.out(f"{res} = _sin({atoms[0]})")
            return res, "float"
        if func == "cos":
            self.count("fp_others")
            self.out(f"{res} = _cos({atoms[0]})")
            return res, "float"
        if func == "floor":
            self.count("int_ops")
            self.out(f"{res} = _floor({atoms[0]})")
            return res, "int"
        if func == "mod":
            self.count("int_ops")
            self.out(f"{res} = {atoms[0]} % {atoms[1]}")
            lt, rt = evaluated[0][1], evaluated[1][1]
            if lt == "int" and rt == "int":
                return res, "int"
            if lt == "float" or rt == "float":
                return res, "float"
            return res, "dyn"
        raise CompileError(f"unknown intrinsic {func!r}")

    def _emit_select(self, expr: Select, cache) -> tuple[str, str]:
        self.count("branches")
        ca = self.eval_cond(expr.cond, cache)
        res = self.tmp()
        self._cond_depth += 1
        self.out(f"if {ca}:")
        self.depth += 1
        saved = self._arm_begin()
        ta, tt = self.eval_expr(expr.if_true, cache)
        self.out(f"{res} = {ta}")
        self._arm_end(saved)
        self.depth -= 1
        self.out("else:")
        self.depth += 1
        saved = self._arm_begin()
        fa, ft = self.eval_expr(expr.if_false, cache)
        self.out(f"{res} = {fa}")
        self._arm_end(saved)
        self.depth -= 1
        self._cond_depth -= 1
        return res, tt if tt == ft else "dyn"

    # -- statements -------------------------------------------------------
    def emit_body(self, body) -> None:
        for stmt in body:
            self.emit_statement(stmt)

    def emit_statement(self, stmt: Stmt) -> None:
        # The step-limit unwind discards the result, so pending counts
        # need no flush here (they become unobservable on that path).
        self.out("_steps += 1")
        self.out("if _steps > _max: _slimit(_rt)")
        if isinstance(stmt, Assign):
            self._emit_assign(stmt)
        elif isinstance(stmt, Loop):
            self._emit_loop(stmt)
        elif isinstance(stmt, WhileLoop):
            self._emit_while(stmt)
        elif isinstance(stmt, If):
            self._emit_if(stmt)
        elif isinstance(stmt, ChecksumAdd):
            self._emit_checksum_add(stmt)
        elif isinstance(stmt, CounterIncrement):
            self._emit_counter_increment(stmt)
        elif isinstance(stmt, ChecksumAssert):
            self._emit_assert(stmt)
        elif isinstance(stmt, ChecksumReset):
            self._emit_reset(stmt)
        else:
            raise CompileError(f"cannot compile statement {stmt!r}")

    def _emit_loop(self, stmt: Loop) -> None:
        if self.opt.unroll:
            trip = loop_trip_constant(stmt.lower, stmt.upper, self.bound)
            if trip is not None and trip <= UNROLL_LIMIT:
                self._emit_loop_unrolled(stmt, trip)
                return
            if trip is None and loop_trip_at_most_one(
                stmt.lower, stmt.upper, self.bound
            ):
                self._emit_loop_single(stmt)
                return
        lo, lt = self.eval_expr(stmt.lower, None)
        hi, ht = self.eval_expr(stmt.upper, None)
        shadowed = stmt.var in self.bound
        saved = None
        if shadowed:
            saved = self.tmp()
            self.out(f"{saved} = v_{stmt.var}")
        self.flush()
        frame = self._push_frame(stmt.var)
        self.out(
            f"for v_{stmt.var} in range({self._as_int(lo, lt)}, "
            f"{self._as_int(hi, ht)} + 1):"
        )
        self.depth += 1
        mark = len(self.lines)
        self.count("branches")
        self.bound.add(stmt.var)
        self.emit_body(stmt.body)
        self.flush()
        if len(self.lines) == mark:
            self.out("pass")
        self.depth -= 1
        self._pop_frame(frame)
        if not shadowed:
            self.bound.discard(stmt.var)
        self.count("branches")
        if shadowed:
            self.out(f"v_{stmt.var} = {saved}")

    def _emit_loop_unrolled(self, stmt: Loop, trip: int) -> None:
        """A provably constant-trip loop: straight-line iterations.

        Both bounds are still evaluated (the interpreter counts them);
        the ``for``/``range`` machinery disappears.  Iterations stay in
        one basic block, so their counts coalesce into single flushes.
        """
        lo, lt = self.eval_expr(stmt.lower, None)
        self.eval_expr(stmt.upper, None)
        shadowed = stmt.var in self.bound
        saved = None
        if shadowed:
            saved = self.tmp()
            self.out(f"{saved} = v_{stmt.var}")
        if trip == 0:
            self.count("branches")  # the (only) exit test
            return
        lo_int = self._simple(self._as_int(lo, lt))
        frame = self._push_frame(stmt.var)
        self.bound.add(stmt.var)
        for k in range(trip):
            self.count("branches")
            self.out(
                f"v_{stmt.var} = {lo_int}"
                if k == 0
                else f"v_{stmt.var} = {lo_int} + {k}"
            )
            self.emit_body(stmt.body)
        self._pop_frame(frame)
        if not shadowed:
            self.bound.discard(stmt.var)
        self.count("branches")
        if shadowed:
            self.out(f"v_{stmt.var} = {saved}")

    def _emit_loop_single(self, stmt: Loop) -> None:
        """A provably 0/1-trip loop (clamped degenerate split piece):
        one ``if`` instead of a ``for``."""
        lo, lt = self.eval_expr(stmt.lower, None)
        hi, ht = self.eval_expr(stmt.upper, None)
        shadowed = stmt.var in self.bound
        saved = None
        if shadowed:
            saved = self.tmp()
            self.out(f"{saved} = v_{stmt.var}")
        lo_int = self._simple(self._as_int(lo, lt))
        hi_int = self._simple(self._as_int(hi, ht))
        self.flush()
        frame = self._push_frame(stmt.var)
        self.out(f"if {lo_int} <= {hi_int}:")
        self.depth += 1
        arm = self._arm_begin()
        self.count("branches")
        self.out(f"v_{stmt.var} = {lo_int}")
        self.bound.add(stmt.var)
        self.emit_body(stmt.body)
        self._arm_end(arm)
        self.depth -= 1
        self._pop_frame(frame)
        if not shadowed:
            self.bound.discard(stmt.var)
        self.count("branches")
        if shadowed:
            self.out(f"v_{stmt.var} = {saved}")

    def _emit_while(self, stmt: WhileLoop) -> None:
        self.flush()
        self.out("while True:")
        self.depth += 1
        self.count("branches")
        ca = self.eval_cond(stmt.cond, None)
        self.flush()
        self.out(f"if not {ca}: break")
        if stmt.counter is not None:
            if stmt.counter not in self.scalar_types:
                raise CompileError(
                    f"while counter {stmt.counter!r} is not a scalar"
                )
            cur = self._load_counter(stmt.counter, [])
            self._store_counter(stmt.counter, [], f"{cur} + 1")
            self.count("loads")
            self.count("stores")
            self.count("int_ops")
            self.count("counter_ops")
        self.emit_body(stmt.body)
        self.flush()
        self.depth -= 1

    def _emit_if(self, stmt: If) -> None:
        if self.opt.fuse_guards:
            chain = analyze_guard_chain(stmt.cond, self.bound)
            if chain is not None and not any(
                leaf.raising for leaf in chain.leaves
            ):
                self._emit_fused_if(stmt, chain)
                return
        self.count("branches")
        ca = self.eval_cond(stmt.cond, None)
        self.flush()
        self.out(f"if {ca}:")
        self.depth += 1
        arm = self._arm_begin()
        self.emit_body(stmt.then_body)
        self._arm_end(arm)
        self.depth -= 1
        if stmt.else_body:
            self.out("else:")
            self.depth += 1
            arm = self._arm_begin()
            self.emit_body(stmt.else_body)
            self._arm_end(arm)
            self.depth -= 1

    def _scenario_line(self, counts: dict[str, int]) -> None:
        """Direct (un-buffered) merged increment for one guard-chain
        count scenario, plus the If statement's own branch test."""
        merged = dict(counts)
        merged["branches"] = merged.get("branches", 0) + 1
        parts = [
            f"_n_{bucket} += {merged[bucket]}"
            for bucket in _COUNTERS
            if merged.get(bucket)
        ]
        self.out("; ".join(parts))

    def _emit_fused_if(self, stmt: If, chain) -> None:
        """Guard fusion: one merged range test decides the branch; the
        interpreter's exact per-"first false leaf" count vectors are
        replayed by re-testing individual (pure, non-raising) leaves
        only on the false side."""
        fused = self._hoist_guard_bounds(fuse_condition(chain, self.bound))
        self.flush()
        self.out(f"if {fused}:")
        self.depth += 1
        self._scenario_line(chain.scenarios[-1])
        arm = self._arm_begin()
        self.emit_body(stmt.then_body)
        self._arm_end(arm)
        self.depth -= 1
        self.out("else:")
        self.depth += 1
        leaves = chain.leaves
        if len(leaves) == 2:
            self.out(f"if not {leaves[0].condition}:")
            self.out(f"    {self._merged_scenario(chain.scenarios[0])}")
            self.out("else:")
            self.out(f"    {self._merged_scenario(chain.scenarios[1])}")
        else:
            for i, leaf in enumerate(leaves[:-1]):
                kw = "if" if i == 0 else "elif"
                self.out(f"{kw} not {leaf.condition}:")
                self.out(f"    {self._merged_scenario(chain.scenarios[i])}")
            self.out("else:")
            self.out(
                f"    {self._merged_scenario(chain.scenarios[len(leaves) - 1])}"
            )
        if stmt.else_body:
            arm = self._arm_begin()
            self.emit_body(stmt.else_body)
            self._arm_end(arm)
        self.depth -= 1

    def _merged_scenario(self, counts: dict[str, int]) -> str:
        merged = dict(counts)
        merged["branches"] = merged.get("branches", 0) + 1
        return "; ".join(
            f"_n_{bucket} += {merged[bucket]}"
            for bucket in _COUNTERS
            if merged.get(bucket)
        )

    def _hoist_guard_bounds(self, fused: str) -> str:
        """Hoist loop-invariant fused-bound subexpressions (``min``/
        ``max`` clamps and affine bounds) out of the test."""
        if not self.opt.licm or not self.frames:
            return fused
        parts = fused.split(" and ")
        out_parts = []
        for part in parts:
            pieces = part.split(" <= ")
            if len(pieces) in (2, 3):
                pieces = [self._hoist_atom(p) for p in pieces]
                out_parts.append(" <= ".join(pieces))
            else:
                out_parts.append(part)
        return " and ".join(out_parts)

    def _emit_csadd(
        self, which: str, bits: str, count: str, address: str
    ) -> None:
        """Inline ``ChecksumState.add`` for the single-channel case.

        Channel 0 never rotates, ``bits`` atoms are already masked
        (memory words and encode results live in [0, 2^64)), and the
        checksum name is validated at compile time — so the plain-sum
        update inlines to one dict read-modify-write.  Multi-channel
        runs take the method call (rotation needs the address).
        """
        if not _valid_name(which):
            raise CompileError(f"unknown checksum {which!r}")
        self.out("if _ch1:")
        self.depth += 1
        self.out("_cs.contribution_count += 1")
        self.out(
            f"_s0[{which!r}] = (_s0.get({which!r}, 0) + {bits} * {count}) "
            "& 18446744073709551615"
        )
        self.depth -= 1
        self.out("else:")
        self.out(f"    _csadd({which!r}, {bits}, {count}, {address})")

    def _counter_location(self, ref, cache) -> tuple[str, list[str]]:
        """(region name, index atoms) of a shadow counter ref."""
        if not isinstance(ref, ArrayRef):
            return ref.name, []
        # Named once for the counter's load and its store.
        return ref.array, [
            self._simple(a) for a in self._index_atoms(ref.indices, cache)
        ]

    def _emit_bump_counter(self, ref, cache, amount_atom: str) -> None:
        name, loc = self._counter_location(ref, cache)
        if name not in self.array_types and name not in self.scalar_types:
            raise CompileError(f"counter region {name!r} not declared")
        cur = self._load_counter(name, loc)
        self._store_counter(name, loc, f"{cur} + {amount_atom}")
        self.count("loads")
        self.count("stores")
        self.count("int_ops")
        self.count("counter_ops")

    def _emit_assign(self, stmt: Assign) -> None:
        instr = stmt.instrumentation
        exprs = [stmt.rhs]
        if isinstance(stmt.lhs, ArrayRef):
            exprs.extend(stmt.lhs.indices)
        explicit_reads = []
        writes = [stmt.lhs]
        if instr:
            exprs.extend(use.count for use in instr.uses)
            explicit_reads.extend(use.ref for use in instr.uses)
            for counter_ref in instr.counter_increments:
                if isinstance(counter_ref, ArrayRef):
                    exprs.extend(counter_ref.indices)
            if instr.pre_overwrite:
                explicit_reads.append(stmt.lhs)
                adj_counter = instr.pre_overwrite.counter
                if isinstance(adj_counter, ArrayRef):
                    # The counter location is evaluated twice (load and
                    # reset store) — two read events per index read.
                    exprs.extend(adj_counter.indices)
                    exprs.extend(adj_counter.indices)
            if isinstance(instr.duplicate_store, ArrayRef):
                exprs.extend(instr.duplicate_store.indices)
            if instr.duplicate_store is not None:
                writes.append(instr.duplicate_store)
            if instr.definition:
                exprs.append(instr.definition.count)
        cached = self._begin_bundle(exprs, explicit_reads, writes)
        # 1. Target location (index loads go through the bundle cache).
        if isinstance(stmt.lhs, ArrayRef):
            tname = stmt.lhs.array
            if tname not in self.array_types:
                raise CompileError(f"store to undeclared array {tname!r}")
            tidx_atoms = self._index_atoms(stmt.lhs.indices, "_bc")
            tidx_atoms = [self._simple(a) for a in tidx_atoms]
            tidx = self.tmp()
            self.out(f"{tidx} = {self._tuple_atom(tidx_atoms)}")
            self.count("int_ops", len(stmt.lhs.indices))
            elem_type = self.array_types[tname]
        else:
            tname = stmt.lhs.name
            if tname not in self.scalar_types:
                raise CompileError(f"store to undeclared scalar {tname!r}")
            tidx_atoms = []
            tidx = "()"
            elem_type = self.scalar_types[tname]
        # 2. Right-hand side.
        va, vt = self.eval_expr(stmt.rhs, "_bc")
        # 3. Use contributions, counter bumps, pre-overwrite adjustment.
        if instr:
            for use in instr.uses:
                _, ubits, uaddr, _ = self.load_ref(
                    use.ref, "_bc", need_value=False, need_addr=True
                )
                ca, ct = self.eval_expr(use.count, "_bc")
                self._emit_csadd(
                    use.checksum, ubits, self._as_int(ca, ct), uaddr
                )
                self.count_channels()
            for counter_ref in instr.counter_increments:
                self._emit_bump_counter(counter_ref, "_bc", "1")
            if instr.pre_overwrite:
                self._emit_pre_overwrite(stmt, instr.pre_overwrite)
        # 4. The store (encode, store through memory, drop cache entry).
        bits = self.tmp()
        self.out(f"{bits} = {self._encode(va, vt, elem_type)}")
        need_addr = bool(instr and instr.definition)
        addr = self._emit_raw_store(tname, tidx_atoms, bits, need_addr)
        self.count("stores")
        self._pop_store_key(stmt.lhs, cached, tname, tidx)
        # 4b. Duplication baseline: second store of the same bits.
        if instr and instr.duplicate_store is not None:
            dup = instr.duplicate_store
            if isinstance(dup, ArrayRef):
                dname = dup.array
                didx_atoms = [
                    self._simple(a)
                    for a in self._index_atoms(dup.indices, "_bc")
                ]
                didx = self.tmp()
                self.out(f"{didx} = {self._tuple_atom(didx_atoms)}")
            else:
                dname = dup.name
                didx_atoms = []
                didx = "()"
            if (
                dname not in self.array_types
                and dname not in self.scalar_types
            ):
                raise CompileError(f"duplicate store to undeclared {dname!r}")
            self._emit_raw_store(dname, didx_atoms, bits, need_addr=False)
            self.count("stores")
            self._pop_store_key(dup, cached, dname, didx)
        # 5. Def contribution — the register copy just stored.
        if instr and instr.definition:
            d = instr.definition
            ca, ct = self.eval_expr(d.count, "_bc")
            self._emit_csadd(
                d.checksum, bits, self._as_int(ca, ct), addr
            )
            self.count_channels()
            if d.aux:
                self._emit_csadd(d.aux_checksum, bits, "1", addr)
                self.count_channels()
        self._end_bundle()

    def _emit_pre_overwrite(self, stmt: Assign, adjust) -> None:
        # Algorithm 3 lines 13-16: old value + shadow counter, then the
        # counter location is re-evaluated for the reset store (the
        # interpreter evaluates it once per counter access).
        _, obits, oaddr, _ = self.load_ref(
            stmt.lhs, "_bc", need_value=False, need_addr=True
        )
        name, loc = self._counter_location(adjust.counter, "_bc")
        if name not in self.array_types and name not in self.scalar_types:
            raise CompileError(f"counter region {name!r} not declared")
        cv = self._load_counter(name, loc)
        self.count("loads")
        self.count("counter_ops")
        self._emit_csadd(
            adjust.def_checksum, obits, f"({cv} - 1)", oaddr
        )
        self._emit_csadd(adjust.e_use_checksum, obits, "1", oaddr)
        self.count_channels(2)
        name2, loc2 = self._counter_location(adjust.counter, "_bc")
        self._store_counter(name2, loc2, "0")
        self.count("stores")

    def _emit_checksum_add(self, stmt: ChecksumAdd) -> None:
        value = stmt.value
        is_data_ref = isinstance(value, ArrayRef) or (
            isinstance(value, VarRef) and value.name in self.scalar_types
        )
        if is_data_ref:
            self._begin_bundle([stmt.count], explicit_reads=[value])
            # A data reference: contribute the loaded bits and address.
            # Note the interpreter's _is_data_ref checks scalar
            # declarations *before* the environment, so a scalar that
            # shadows a loop variable still loads from memory here.
            _, ba, aa, _ = self.load_ref(
                value, "_bc", need_value=False, need_addr=True
            )
        else:
            self._begin_bundle([value, stmt.count])
            va, vt = self.eval_expr(value, "_bc")
            ba = self.tmp()
            if vt == "int":
                self.out(f"{ba} = {va} & 18446744073709551615")
            elif vt == "float":
                self.out(f"{ba} = _unpq(_pkd({va}))[0]")
            else:
                self.out(f"{ba} = _encdyn({va})")
            aa = "None"
        ca, ct = self.eval_expr(stmt.count, "_bc")
        self._emit_csadd(stmt.checksum, ba, self._as_int(ca, ct), aa)
        self.count_channels()
        self._end_bundle()

    def _emit_counter_increment(self, stmt: CounterIncrement) -> None:
        exprs = [stmt.amount]
        if isinstance(stmt.counter, ArrayRef):
            exprs.extend(stmt.counter.indices)
        self._begin_bundle(exprs)
        aa, at = self.eval_expr(stmt.amount, "_bc")
        amount = self.tmp()
        self.out(f"{amount} = {self._as_int(aa, at)}")
        self._emit_bump_counter(stmt.counter, "_bc", amount)
        self._end_bundle()

    def _emit_assert(self, stmt: ChecksumAssert) -> None:
        # Everything pending must be architecturally visible before a
        # possible _Halt unwind — that is the one exception path that
        # still returns a result.
        self.flush()
        pairs = tuple(tuple(pair) for pair in stmt.pairs)
        self.out(f"_n_branches += {len(pairs)} * _channels")
        found = self.tmp()
        self.out(f"{found} = _verify({pairs!r})")
        self.out(f"if {found}:")
        self.depth += 1
        self.out("if _first is None: _first = _steps")
        self.out(f"_mismatches.extend({found})")
        self.out("if _halt: raise _Halt")
        self.depth -= 1

    def _emit_reset(self, stmt: ChecksumReset) -> None:
        self.flush()
        self.out("for _sums in _cs.sums:")
        if stmt.names is None:
            self.out("    for _k in list(_sums): _sums[_k] = 0")
        else:
            names = tuple(stmt.names)
            self.out(f"    for _k in {names!r}: _sums[_k] = 0")


def generate_source(program: Program, opt: OptConfig | None = None) -> str:
    """The Python source of ``_kernel(_rt)`` for one program.

    ``opt`` selects the optimization pipeline; the default (level-0)
    configuration reproduces the straight-line reference emission.
    """
    em = _Emitter(program, opt)
    opt = em.opt
    em.out("_mem = _rt.memory")
    if em.inline:
        for name, (ri, rank) in em._region_local.items():
            em.out(f"_R{ri} = _mem._regions[{name!r}]")
            em.out(f"_w{ri} = _R{ri}.words")
            em.out(f"_b{ri} = _R{ri}.base")
            if rank == 1:
                em.out(f"(_d{ri}_0,) = _R{ri}.shape")
            elif rank == 2:
                em.out(f"_d{ri}_0, _d{ri}_1 = _R{ri}.shape")
        # Absolute access counters, live in locals; ``Memory`` holds
        # them only around a watched access (see ``_xld``/``_xst``).
        em.out("_lc = _mem.load_count")
        em.out("_sc = _mem.store_count")
        em.out("_nl, _ns = _watch(_mem)")
    else:
        em.out("_lb = _mem.load_bits")
        em.out("_lba = _mem.load_bits_addr")
        em.out("_sb = _mem.store_bits")
        em.out("_sba = _mem.store_bits_addr")
    if opt.static_cache:
        em.out("_adr = _mem.address_of")
    em.out("_cs = _rt.checksums")
    em.out("_csadd = _cs.add")
    em.out("_verify = _cs.verify")
    em.out("_channels = _cs.channels")
    em.out("_s0 = _cs.sums[0]")
    em.out("_ch1 = _channels == 1")
    em.out("_halt = _rt.halt_on_mismatch")
    em.out("_mismatches = _rt.mismatches")
    em.out("_max = _INF if _rt.max_steps is None else _rt.max_steps")
    for param in program.params:
        em.out(f"v_{param} = _rt.params[{param!r}]")
    for counter in _COUNTERS:
        em.out(f"_n_{counter} = 0")
    em.out("_steps = 0")
    em.out("_first = None")
    em.out("try:")
    em.depth += 1
    em.out("try:")
    em.depth += 1
    frame = em._push_frame(None)
    em.emit_body(program.body)
    em.flush()
    if frame is not None:
        if not em.lines and not frame.preamble:
            em.out("pass")
        em._pop_frame(frame)
    elif em.lines[-1].strip() == "try:":
        em.out("pass")
    em.depth -= 1
    em.out("except _Halt:")
    em.out("    pass")
    em.depth -= 1
    em.out("finally:")
    em.depth += 1
    if em.inline:
        # ``Memory`` is ahead of the locals only when an exception left
        # a watched access after it counted itself.
        em.out("_mem.load_count = max(_lc, _mem.load_count)")
        em.out("_mem.store_count = max(_sc, _mem.store_count)")
    em.out("_c = _rt.counts")
    for counter in _COUNTERS:
        em.out(f"_c.{counter} += _n_{counter}")
    em.out("_rt.statements_executed = _steps")
    em.out("_rt.first_detection_step = _first")
    em.depth -= 1
    header = "def _kernel(_rt):\n"
    return header + "\n".join(em.lines) + "\n"


def generate_checkpoint_source(program: Program) -> str:
    """Python source of ``_checkpoint`` / ``_restore`` for one program.

    The recovery subsystem snapshots every region the program declares
    (shadow counters included — they are epoch state like any other).
    The checkpoint function is unrolled per region with literal names,
    and is copy-on-write: a region whose write-generation counter
    matches the previous checkpoint shares that checkpoint's immutable
    word tuple instead of copying again.

    Compiled and interpreted recovery share the :class:`Memory` region
    API, so both backends observe identical snapshot contents; the
    generated form exists so compiled kernels carry their own
    checkpoint/restore code (no per-region dict walk at run time).
    """
    names = [d.name for d in program.arrays] + [d.name for d in program.scalars]
    lines = [
        "def _checkpoint(_mem, _prev):",
        "    _pw, _pv = _prev if _prev is not None else (None, None)",
        "    _words = {}",
        "    _vers = {}",
    ]
    for name in names:
        lines += [
            f"    _v = _mem.region_version({name!r})",
            f"    if _pv is not None and _pv[{name!r}] == _v:",
            f"        _words[{name!r}] = _pw[{name!r}]",
            "    else:",
            f"        _words[{name!r}] = _mem.copy_region_words({name!r})",
            f"    _vers[{name!r}] = _v",
        ]
    if not names:
        lines.append("    pass")
    lines += [
        "    return _words, _vers",
        "def _restore(_mem, _words, _names):",
        "    for _n in _names:",
        "        _mem.restore_region_words(_n, _words[_n])",
    ]
    return "\n".join(lines) + "\n"

"""Tropical-semiring WFST data model, AT&T-style text parsing, and columnar arc storage.

Weights are plain floats in the negative-log (tropical) domain: path costs
combine by addition, alternatives combine by min.  `math.inf` is the
annihilator (no path), `0.0` the identity.

Arcs are stored as typed columns, in the manner of OpenFst's const FSTs:
`array('q')` for src, dst, ilabel and olabel and `array('d')` for weight,
one entry per arc, sorted by (src, ilabel, dst, olabel, weight).  The
columns may arrive in any order: `Wfst._store` checks the order in one
pass and sorts, stably, only when it is broken.  Each state's arcs form one
range, and epsilon arcs (ilabel 0) sort first, so that range splits into an
epsilon prefix and an emitting suffix.  The search reads the columns only;
`Wfst.arcs`, the same arcs as `Arc` NamedTuples, is built on first access.
State and label ids are below `ID_LIMIT` (2^31, the range of OpenFst's
int32 ids).

`parse_wfst_text` splits the text into lines one piece at a time and reads
them one block of `_BLOCK_LINES` lines at a time, so it never holds the
whole text's lines.  The leading 5-field arc lines of each block are
converted column by column; the rest of the block goes through a
line-by-line loop that checks every field and names the line of the first
error.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import partial
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat, starmap
from operator import le, lt, ne
from typing import NamedTuple

EPSILON = 0

ZERO = math.inf  # tropical "no path"
ONE = 0.0  # tropical path identity

# State and label ids must be below this bound: OpenFst's StateId and Label
# are int32.  It is checked before any per-state table is allocated.
ID_LIMIT = 2 ** 31

# Lines per block in `parse_wfst_text`, and the token that joins a block's
# lines to mark where each ends.
_BLOCK_LINES = 1024
_LINE_END = "\0"


def _check_spelling(text: str) -> None:
    """Raise ValueError on a `_` or a non-ASCII character in a number's
    text: spellings int() and float() take but no writer makes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")


# Where `_log` hands its records instead of `logging`, while set: a function
# of (logger name, level name, format, args).  `cli.main` sets it while it
# runs.
_log_sink = None


def _log(name: str, level: str, msg: str, *args) -> None:
    """Log `msg % args` on the `logging` logger `name` at the level named
    `level` ("DEBUG", "INFO" or "WARNING"), or hand it to `_log_sink`.
    `logging` is imported only when a record goes to a logger, so a process
    whose records all go to the sink never loads it."""
    if _log_sink is not None:
        _log_sink(name, level, msg, args)
        return
    import logging

    logging.getLogger(name).log(getattr(logging, level), msg, *args, stacklevel=2)


class WfstError(Exception):
    """Base class for transducer construction and parsing failures."""


class ParseError(WfstError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class SymbolError(WfstError):
    """A label token could not be resolved against a symbol table."""


class Arc(NamedTuple):
    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float


_new_arc = partial(tuple.__new__, Arc)  # Arc(*fields) without its Python-level __new__


class SymbolTable:
    """Bidirectional label-id <-> label-string map. Id 0 is always "<eps>"."""

    EPS_SYMBOL = "<eps>"

    def __init__(self, symbols: dict[str, int] | None = None):
        self._sym_to_id: dict[str, int] = {self.EPS_SYMBOL: 0}
        self._id_to_sym: dict[int, str] = {0: self.EPS_SYMBOL}
        if symbols:
            for sym, idx in symbols.items():
                self.add(sym, idx)

    def add(self, symbol: str, idx: int | None = None) -> int:
        if idx is None:
            idx = max(self._id_to_sym) + 1
        if idx < 0:
            raise SymbolError(f"negative id {idx} for symbol {symbol!r}")
        if symbol == self.EPS_SYMBOL or idx == 0:
            if not (symbol == self.EPS_SYMBOL and idx == 0):
                raise SymbolError(f"id 0 is reserved for {self.EPS_SYMBOL!r}, got {symbol!r} = {idx}")
            return 0
        existing = self._sym_to_id.get(symbol)
        if existing is not None and existing != idx:
            raise SymbolError(f"symbol {symbol!r} already mapped to {existing}, cannot remap to {idx}")
        other = self._id_to_sym.get(idx)
        if other is not None and other != symbol:
            raise SymbolError(f"id {idx} already mapped to {other!r}, cannot remap to {symbol!r}")
        self._sym_to_id[symbol] = idx
        self._id_to_sym[idx] = symbol
        return idx

    def find_id(self, symbol: str) -> int | None:
        return self._sym_to_id.get(symbol)

    def find_symbol(self, idx: int) -> str | None:
        return self._id_to_sym.get(idx)

    def __iter__(self):
        return iter(sorted(self._id_to_sym.items()))

    @classmethod
    def parse(cls, text: str) -> "SymbolTable":
        """Parse "symbol id" lines. '#' starts a comment, blank lines ignored."""
        table = cls()
        saw_eps = False
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"expected 'symbol id', got {raw!r}", line_no)
            sym, id_tok = fields
            try:
                _check_spelling(id_tok)
                idx = int(id_tok)
            except ValueError:
                raise ParseError(f"bad id {id_tok!r}", line_no) from None
            if idx == 0:
                if sym != cls.EPS_SYMBOL:
                    raise ParseError(f"id 0 must be {cls.EPS_SYMBOL!r}, got {sym!r}", line_no)
                saw_eps = True
                continue
            try:
                table.add(sym, idx)
            except SymbolError as exc:
                raise ParseError(str(exc), line_no) from None
        if not saw_eps:
            _log("lsd_wfst.wfst", "DEBUG",
                 "symbol table text had no explicit '<eps> 0' line; id 0 implied")
        return table

    def format(self) -> str:
        return "".join(f"{sym} {idx}\n" for idx, sym in sorted(self._id_to_sym.items()))


class Wfst:
    """Immutable weighted transducer with columnar, offset-indexed arc storage.

    Safe for unlimited concurrent readers once constructed (the arc-tuple
    caches and `arcs` are filled idempotently on first use).  Arc i is
    (`arc_src[i]`, `arc_dst[i]`, `arc_ilabel[i]`, `arc_olabel[i]`,
    `arc_weight[i]`), with the arcs grouped by source state;
    `arc_offsets[s] : arc_offsets[s+1]` is state s's range and
    `eps_split[s]` is the boundary between its epsilon prefix and emitting
    suffix.
    """

    def __init__(self, num_states: int, start: int, arcs: list[Arc],
                 final_weights: dict[int, float]):
        _check_states(num_states, start, final_weights)
        columns = tuple(zip(*arcs)) if arcs else ((),) * 5
        src, dst, il, ol, w = columns
        # Negative weights are legal here; NaN is not.
        if arcs and not (0 <= min(src) and max(src) < num_states
                         and 0 <= min(dst) and max(dst) < num_states
                         and 0 <= min(il) and max(il) < ID_LIMIT
                         and 0 <= min(ol) and max(ol) < ID_LIMIT
                         and not any(map(math.isnan, w))):
            _reject_invalid_arc(arcs, num_states)
        self._store(num_states, start, columns, final_weights)

    @classmethod
    def _from_columns(cls, num_states: int, start: int, columns: tuple,
                      final_weights: dict[int, float]) -> "Wfst":
        """A transducer on `columns` (src, dst, ilabel, olabel, weight), which
        must hold valid arcs, in any order."""
        _check_states(num_states, start, final_weights)
        self = cls.__new__(cls)
        self._store(num_states, start, columns, final_weights)
        return self

    def _store(self, num_states: int, start: int, columns: tuple,
               final_weights: dict[int, float]) -> None:
        self.num_states = num_states
        self.start = start
        # Stored order: grouped by source state, epsilon arcs first.  Sorting
        # is stable, so equal keys (and weights -0.0 and 0.0) keep input order.
        src, dst, il, ol, w = columns
        if not all(starmap(le, pairwise(zip(src, il, dst, ol, w)))):
            src, il, dst, ol, w = zip(*sorted(zip(src, il, dst, ol, w)))
        # Columns that are arrays already (the parser's, in order) are kept,
        # not copied.
        self.arc_src, self.arc_dst, self.arc_ilabel, self.arc_olabel, self.arc_weight = (
            column if isinstance(column, array) else array(code, column)
            for code, column in zip("qqqqd", (src, dst, il, ol, w)))
        self.final_weights = {s: float(w) for s, w in final_weights.items() if w != ZERO}

        # The arcs are grouped by source state, so a state's offset is the
        # number of arcs whose source sorts before it.  (A list counts
        # faster than an array, which boxes each count it reads.)
        src, il = self.arc_src, self.arc_ilabel
        counts = [0] * num_states
        for s in src:
            counts[s] += 1
        offsets = array("q", accumulate(counts, initial=0))
        self.arc_offsets = offsets
        self.has_epsilon_arcs = EPSILON in il
        if self.has_epsilon_arcs:
            # Each state's range holds its epsilon arcs (ilabel 0) first.
            self.eps_split = array("q", map(bisect_left, repeat(il), repeat(1),
                                            offsets, islice(offsets, 1, None)))
        else:
            self.eps_split = offsets[:num_states]
        self.max_ilabel = max(il, default=0)

        # Per-state arc tuples for the search loop, filled on a state's first
        # visit: a decode touches a small share of a large graph's states.
        self.emitting_cache: list[tuple | None] = [None] * num_states
        self.epsilon_cache: list[tuple | None] = [None] * num_states

        self._arcs: list[Arc] | None = None
        self._eps_cycle: tuple[int, ...] | None = None
        self._eps_cycle_checked = False

        if not self.final_weights:
            _log("lsd_wfst.wfst", "WARNING", "transducer has no state with a finite final weight; "
                 "decoding will fall back to the best non-final token")

    @property
    def arcs(self) -> list[Arc]:
        """Every arc as an `Arc`, in stored order; built on first access."""
        arcs = self._arcs
        if arcs is None:
            arcs = self._arcs = list(map(_new_arc, zip(
                self.arc_src, self.arc_dst, self.arc_ilabel, self.arc_olabel, self.arc_weight)))
        return arcs

    @property
    def num_arcs(self) -> int:
        return len(self.arc_src)

    def emitting_arcs(self, state: int) -> tuple[tuple[int, int, int, float], ...]:
        """`(arc index, dst, ilabel, weight)` for each emitting arc of `state`.

        Built on first use and kept in `emitting_cache[state]`.
        """
        lo, hi = self.eps_split[state], self.arc_offsets[state + 1]
        out = tuple(zip(range(lo, hi), self.arc_dst[lo:hi], self.arc_ilabel[lo:hi],
                        self.arc_weight[lo:hi]))
        self.emitting_cache[state] = out
        return out

    def epsilon_arcs(self, state: int) -> tuple[tuple[int, int, float], ...]:
        """`(arc index, dst, weight)` for each epsilon arc of `state` that is
        not a self-loop; a positive self-loop can never improve its own state.

        Built on first use and kept in `epsilon_cache[state]`.
        """
        lo, hi = self.arc_offsets[state], self.eps_split[state]
        out = () if lo == hi else tuple(
            arc for arc in zip(range(lo, hi), self.arc_dst[lo:hi], self.arc_weight[lo:hi])
            if arc[1] != state)
        self.epsilon_cache[state] = out
        return out

    def final_weight(self, state: int) -> float:
        self._check_state(state)
        return self.final_weights.get(state, ZERO)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.num_states:
            raise IndexError(f"state {state} out of range [0, {self.num_states})")

    def epsilon_cycle(self) -> tuple[int, ...] | None:
        """The states of an epsilon cycle the search refuses, in arc order, or
        None; found on first call and kept.

        Refused are every epsilon cycle through two or more states and every
        epsilon self-loop of weight <= 0.  A positive self-loop never improves
        its own state, and `epsilon_arcs` skips it.  So with no refused cycle
        the epsilon arcs the search follows are acyclic: each step's epsilon
        closure ends, and each step's lattice nodes can be ordered.
        """
        if not self._eps_cycle_checked:
            self._eps_cycle = _epsilon_cycle(self)
            self._eps_cycle_checked = True
        return self._eps_cycle

    def to_text(self, isyms: SymbolTable | None = None,
                osyms: SymbolTable | None = None) -> str:
        """Serialize to the AT&T-style text format accepted by `parse_wfst_text`.

        The start state's arcs (or its final line) are emitted first so that
        reparsing recovers the same start state.
        """
        def label(table: SymbolTable | None, i: int) -> str:
            sym = table.find_symbol(i) if table is not None else None
            return str(i) if sym is None else sym

        def final_line(s: int) -> str:
            w = self.final_weights[s]
            return f"{s}" if w == 0.0 else f"{s} {w!r}"

        lines: list[str] = []
        lo, hi = self.arc_offsets[self.start], self.arc_offsets[self.start + 1]
        start_written_final = False
        if lo == hi:
            # The start state must be mentioned first to survive reparsing.
            # An infinite final weight round-trips to "exists, not final".
            if self.start in self.final_weights:
                lines.append(final_line(self.start))
                start_written_final = True
            else:
                lines.append(f"{self.start} inf")
        columns = (self.arc_src, self.arc_dst, self.arc_ilabel, self.arc_olabel, self.arc_weight)
        # The start state's range, then the ranges of the states before and after it.
        for part in (slice(lo, hi), slice(lo), slice(hi, None)):
            lines += [f"{s} {d} {label(isyms, i)} {label(osyms, o)} {w!r}"
                      for s, d, i, o, w in zip(*(column[part] for column in columns))]
        for s in sorted(self.final_weights):
            if start_written_final and s == self.start:
                continue
            lines.append(final_line(s))
        return "\n".join(lines) + "\n"


def _check_states(num_states: int, start: int, final_weights: dict[int, float]) -> None:
    """The checks on states that come before any arc is looked at."""
    if num_states <= 0:
        raise WfstError("a Wfst needs at least one state")
    if num_states > ID_LIMIT:
        raise WfstError(f"state id {num_states - 1} is past the largest state id, "
                        f"{ID_LIMIT - 1}")
    if not 0 <= start < num_states:
        raise WfstError(f"start state {start} out of range [0, {num_states})")
    for s, w in final_weights.items():
        if not 0 <= s < num_states:
            raise WfstError(f"final state {s} out of range")
        if math.isnan(w):
            raise WfstError(f"final weight of state {s} is NaN")


def _reject_invalid_arc(arcs: list[Arc], num_states: int) -> None:
    """Raise for the first invalid arc in input order."""
    for a in arcs:
        if not (0 <= a.src < num_states and 0 <= a.dst < num_states):
            raise WfstError(f"arc {a} references an invalid state")
        if a.ilabel < 0 or a.olabel < 0:
            raise WfstError(f"arc {a} has a negative label id")
        if a.ilabel >= ID_LIMIT or a.olabel >= ID_LIMIT:
            raise WfstError(f"arc {a} has a label id past the largest label id, {ID_LIMIT - 1}")
        if math.isnan(a.weight):
            raise WfstError(f"arc {a} has a NaN weight")


def _resolve_label(token: str, table: SymbolTable | None, line_no: int) -> int:
    """Symbol-table lookup with a bare-integer fallback for table-less fixtures."""
    if table is not None:
        idx = table.find_id(token)
        if idx is not None:
            return idx
    try:
        _check_spelling(token)
        idx = int(token)
    except ValueError:
        raise SymbolError(f"line {line_no}: unknown symbol {token!r}") from None
    if idx < 0:
        raise SymbolError(f"line {line_no}: negative label id {idx}")
    return idx


def parse_wfst_text(text: str, isyms: SymbolTable | None = None,
                    osyms: SymbolTable | None = None,
                    allow_negative_weights: bool = False) -> Wfst:
    """Parse AT&T-style transducer text.

    Arc lines are "src dst ilabel olabel [weight]", final lines are
    "state [weight]"; a missing weight means 0.0.  The first state mentioned
    is the start state.  '#' begins a comment line and blank lines are
    ignored.  Labels resolve through the symbol tables when given, with bare
    non-negative integers accepted as raw ids.  State and label ids must be
    below `ID_LIMIT`.

    The text is split into lines a piece at a time, each piece cut just
    after a line feed, so that the pieces' lines are the whole text's lines.
    Lines past a piece's last full block wait for the next piece: every
    block but the last holds `_BLOCK_LINES` lines.
    """
    reader = _GraphReader(isyms, osyms, allow_negative_weights)
    by_block = _LINE_END not in text
    # A piece holds a block or so: `to_text` writes lines of 20-30 characters.
    end, piece = len(text), 32 * _BLOCK_LINES
    lines: list[str] = []
    at = 0
    line_no = 1  # of lines[0]
    while at < end:
        # A cut just after a "\n" ends a line and splits no "\r\n".
        cut = text.find("\n", at + piece) + 1 or end
        lines += text[at:cut].splitlines()
        at = cut
        full = len(lines) if at == end else len(lines) - len(lines) % _BLOCK_LINES
        for first in range(0, full, _BLOCK_LINES):
            block = lines[first:first + _BLOCK_LINES]
            taken = reader.arc_block(block) if by_block else 0
            if taken < len(block):
                reader.read_lines(block[taken:], line_no + first + taken)
        del lines[:full]
        line_no += full
    return reader.finish()


class _GraphReader:
    """Arc columns, final weights and the start state of AT&T text, read one
    block of lines at a time: `arc_block` converts the block's leading arc
    lines in columns, and `read_lines` checks the rest line by line."""

    def __init__(self, isyms: SymbolTable | None, osyms: SymbolTable | None,
                 allow_negative_weights: bool):
        self.isyms = isyms
        self.osyms = osyms
        self.allow_negative_weights = allow_negative_weights
        self.columns = (array("q"), array("q"), array("q"), array("q"), array("d"))
        self.finals: dict[int, float] = {}
        self.start: int | None = None
        self.max_state = -1
        # The first arc with an id the columns do not hold (>= ID_LIMIT); it
        # makes the text an error unless a later line fails to parse.
        self.oversized: Arc | None = None
        # Label token -> id, for the tokens arc blocks have read.
        self.ilabel_ids: dict[str, int] = {}
        self.olabel_ids: dict[str, int] = {}

    def arc_block(self, block: list[str]) -> int:
        """Append the block's leading run of 5-field arc lines to the columns,
        column by column, and return the number of lines taken.

        Returns 0, having appended nothing, if any line of that run needs
        the checking loop: a signed, non-ASCII, non-decimal or oversized id,
        an unknown label, or a weight that is NaN, malformed (a `_` or a
        non-ASCII character included) or (unless allowed) negative.
        """
        n = len(block)
        # No line holds a line-end token of its own (`parse_wfst_text` reads
        # text that has one line by line), so line i's fields are
        # tokens[6i : 6i+5] iff every inserted line-end sits at 6i+5.  If
        # not, the lines before the first that is not 5 fields hold the
        # leading tokens.
        tokens = f" {_LINE_END} ".join(block).split()
        if len(tokens) != 6 * n - 1 or tokens[5::6].count(_LINE_END) != n - 1:
            n = next((i for i, line in enumerate(block) if len(line.split()) != 5), n)
            if not n:
                return 0
            tokens = tokens[:6 * n - 1]
        src_tokens, dst_tokens = tokens[0::6], tokens[1::6]
        ids = "".join(src_tokens) + "".join(dst_tokens)
        if not (ids.isascii() and ids.isdecimal()):
            return 0
        il = _label_ids(tokens[2::6], self.isyms, self.ilabel_ids)
        ol = _label_ids(tokens[3::6], self.osyms, self.olabel_ids)
        if il is None or ol is None:
            return 0
        try:
            src = list(map(int, src_tokens))  # ValueError past int()'s digit limit
            dst = list(map(int, dst_tokens))
            _check_spelling("".join(tokens[4::6]))
            w = list(map(float, tokens[4::6]))
        except ValueError:
            return 0
        top = max(max(src), max(dst))
        if top >= ID_LIMIT:
            return 0
        total = sum(w)  # NaN iff some weight is NaN, or both infinities occur
        if total != total or (min(w) < 0.0 and not self.allow_negative_weights):
            return 0
        for column, values in zip(self.columns, (src, dst, il, ol, w)):
            column.fromlist(values)
        if self.start is None:
            self.start = src[0]
        self.max_state = max(self.max_state, top)
        return n

    def read_lines(self, block: list[str], first_line_no: int) -> None:
        """Read a block line by line, raising the exact error of the first bad line."""
        isyms, osyms = self.isyms, self.osyms
        allow_negative_weights = self.allow_negative_weights
        finals = self.finals
        start, max_state = self.start, self.max_state
        src_col, dst_col, il_col, ol_col, w_col = self.columns

        def parse_state(tok: str, line_no: int) -> int:
            try:
                _check_spelling(tok)
                s = int(tok)
            except ValueError:
                raise ParseError(f"bad state id {tok!r}", line_no) from None
            if s < 0:
                raise ParseError(f"negative state id {s}", line_no)
            return s

        def parse_weight(tok: str, line_no: int) -> float:
            try:
                _check_spelling(tok)
                w = float(tok)
            except ValueError:
                raise ParseError(f"bad weight {tok!r}", line_no) from None
            if math.isnan(w):
                raise ParseError("weight is NaN", line_no)
            if w < 0 and not allow_negative_weights:
                raise ParseError(
                    f"negative weight {w} (pass allow_negative_weights to accept)", line_no)
            return w

        for line_no, raw in enumerate(block, start=first_line_no):
            fields = raw.split()
            n = len(fields)
            if not fields or fields[0].startswith("#"):
                continue
            if n in (1, 2):
                s = parse_state(fields[0], line_no)
                finals[s] = parse_weight(fields[1], line_no) if n == 2 else 0.0
                if start is None:
                    start = s
                max_state = max(max_state, s)
                continue
            if n not in (4, 5):
                raise ParseError(f"expected 1-2 (final) or 4-5 (arc) fields, got {n}", line_no)
            arc = (parse_state(fields[0], line_no), parse_state(fields[1], line_no),
                   _resolve_label(fields[2], isyms, line_no),
                   _resolve_label(fields[3], osyms, line_no),
                   parse_weight(fields[4], line_no) if n == 5 else 0.0)
            src, dst, il, ol, w = arc
            if src < ID_LIMIT and dst < ID_LIMIT and il < ID_LIMIT and ol < ID_LIMIT:
                src_col.append(src)
                dst_col.append(dst)
                il_col.append(il)
                ol_col.append(ol)
                w_col.append(w)
            elif self.oversized is None:
                self.oversized = _new_arc(arc)
            if start is None:
                start = src
            max_state = max(max_state, src, dst)
        self.start, self.max_state = start, max_state

    def finish(self) -> Wfst:
        """The transducer read, or the error `Wfst` raises on it."""
        start = self.start
        if start is None:
            raise ParseError("no states found in transducer text")
        num_states = self.max_state + 1
        if self.oversized is not None:
            # Its state id makes num_states too large, or its label is past
            # ID_LIMIT: `Wfst` checks in this order, so one of these raises.
            _check_states(num_states, start, self.finals)
            _reject_invalid_arc([self.oversized], num_states)
        return Wfst._from_columns(num_states, start, self.columns, self.finals)


def _label_ids(tokens: list[str], table: SymbolTable | None,
               known: dict[str, int]) -> list[int] | None:
    """The ids of label tokens.  Each distinct token is resolved once into
    `known`: through the table if there is one, else as an ASCII decimal
    integer.  None if a token is neither, or its id is not below `ID_LIMIT`."""
    new = set(tokens).difference(known)
    if new:
        symbols = table._sym_to_id if table is not None else {}
        named = new.intersection(symbols)
        numbers = new.difference(named)
        digits = "".join(numbers)
        if numbers and not (digits.isascii() and digits.isdecimal()):
            return None
        try:
            ids = [*map(symbols.__getitem__, named), *map(int, numbers)]
        except ValueError:  # past int()'s digit limit
            return None
        if max(ids) >= ID_LIMIT:
            return None
        known.update(zip(chain(named, numbers), ids))
    return list(map(known.__getitem__, tokens))


def _epsilon_cycle(w: Wfst) -> tuple[int, ...] | None:
    """`Wfst.epsilon_cycle`'s search.  Stored order puts a state's epsilon
    arcs first and sorts them by destination, so when each state's first
    epsilon arc goes to a higher id, every epsilon arc does and there is no
    cycle.  That screen runs at C level; only a graph that fails it is
    searched."""
    if not w.has_epsilon_arcs:
        return None
    offsets, split, dst = w.arc_offsets, w.eps_split, w.arc_dst
    has_eps = list(map(ne, offsets, split))
    if all(map(lt, compress(range(w.num_states), has_eps),
               map(dst.__getitem__, compress(offsets, has_eps)))):
        return None
    weight = w.arc_weight
    succ = {s: [d for d, wt in zip(dst[lo:hi], weight[lo:hi]) if d != s or wt <= 0]
            for s, lo, hi in compress(zip(count(), offsets, split), has_eps)}
    cycle = _find_cycle(succ, w.num_states)
    return None if cycle is None else tuple(cycle)


def _find_cycle(succ: dict[int, list[int]], num_states: int) -> list[int] | None:
    """First cycle in a successor map via iterative coloring DFS."""
    color = [0] * num_states  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in sorted(succ):
        if color[root] != 0:
            continue
        stack = [(root, iter(succ.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
                if color[nxt] == 1:
                    cycle = [node]
                    v = node
                    while v != nxt:
                        v = parent[v]
                        cycle.append(v)
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
        # exhausted without a cycle under this root
    return None

"""Seeded inputs for the two workloads, and their fixed sizes and rates.

Everything here is a pure function of ``(seed, scale)``: the same seed
gives the same envelopes, schedules and connections. The program only
ever receives these envelopes. Every send is valid by construction: bid
starts run ahead of the ticks sent so far, and a revision only raises a
bid its own tenant submitted earlier on the same connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadgen import Op
from repro.gateway.envelopes import (
    AdvanceSlots,
    BidsReply,
    Configure,
    LedgerReply,
    LedgerQuery,
    QueryReply,
    ReviseBid,
    ReviseReply,
    RunQuery,
    SlotReply,
    SubmitBids,
)


@dataclass(frozen=True)
class Size:
    setups: int  # set-ups per run; setup_s is their median
    bids_games: int
    bids_rate: float  # open-loop SubmitBids/s
    mixed_games: int
    mixed_rate: float  # open-loop requests/s besides the ticks
    particles: int  # universe behind the RunQuery tables
    lane: int  # requests generated per closed-loop connection


SIZES = {
    "full": Size(
        setups=5,
        bids_games=200, bids_rate=150.0,
        mixed_games=50, mixed_rate=150.0, particles=2000, lane=4000,
    ),
    "tiny": Size(
        setups=2,
        bids_games=20, bids_rate=100.0,
        mixed_games=10, mixed_rate=100.0, particles=300, lane=2000,
    ),
}

OPEN_SHARE = 0.8  # share of --seconds in the open loop; the rest is closed
WARMUP = 20  # set-up requests per connection
TICK_INTERVAL = 0.1  # seconds between mixed_http's AdvanceSlots(1) ticks
LEAD = 20  # slots a new mixed_http bid starts ahead of the ticks sent so far
REVISE_AGE = (0.2, 1.0)  # a revision raises a bid submitted this long ago (s)
SNAPSHOTS = 2  # universe snapshots, i.e. RunQuery tables
BIDS_HORIZON = 8  # bids_http's period: every bid fits, no slot is ever run
GRID_MEAN_COST = 2.0  # mean game cost of bids_http and mixed_http
MAX_DURATION = 4
HALOS = 8  # RunQuery members asks for halo ids 0..HALOS-1

#: mixed_http's request kinds, in equal shares (README.md says why).
MIXED_KINDS = ("submit", "revise", "ledger", "query")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _costs(prefix: str, games: int, mean_cost: float) -> dict:
    """Game costs on an even grid over ``(0, 2 * mean_cost)``: the same
    catalog for every seed, so which games a period implements, and the
    work that follows, varies little from seed to seed."""
    return {
        f"{prefix}-{j}": 2.0 * mean_cost * (j + 0.5) / games
        for j in range(games)
    }


def _values(rng, duration: int) -> tuple:
    return (float(rng.random()) / duration,) * duration


# ----------------------------------------------------------------- checks --


def _bids_ok(reply):
    if not isinstance(reply, BidsReply) or reply.accepted != 1:
        return f"expected BidsReply(accepted=1), got {reply!r}"
    return None


def _revise_ok(reply):
    if not isinstance(reply, ReviseReply):
        return f"expected ReviseReply, got {reply!r}"
    return None


def _ledger_ok(tenant):
    def check(reply):
        if not isinstance(reply, LedgerReply) or reply.tenant != tenant:
            return f"expected LedgerReply for {tenant!r}, got {reply!r}"
        return None
    return check


def _query_ok(reply):
    if not isinstance(reply, QueryReply) or not reply.units > 0:
        return f"expected a metered QueryReply, got {reply!r}"
    return None


def _tick_ok(slot):
    def check(reply):
        if not isinstance(reply, SlotReply) or reply.slot != slot:
            return f"expected SlotReply(slot={slot}), got {reply!r}"
        return None
    return check


# -------------------------------------------------------------- bids_http --


@dataclass
class HttpPlan:
    configure: Configure
    warmup: list  # Ops sent in order during set-up, lanes by op.conn
    open_ops: list  # Ops with due times
    lanes: list  # per-connection closed-loop Ops
    ticks: int  # AdvanceSlots ticks in the open loop


def bids_plan(seed: int, size: Size, seconds: float, conns: int) -> HttpPlan:
    """Distinct tenants each send one non-revisable SubmitBids: in the
    warm-up, on the open loop and back to back on the closed loop."""
    rng = _rng(seed, 1)
    horizon = BIDS_HORIZON
    games = size.bids_games
    configure = Configure(
        optimizations=tuple(_costs("opt", games, GRID_MEAN_COST).items()),
        horizon=horizon,
    )

    def submit(tenant, conn, due=0.0):
        duration = int(rng.integers(1, MAX_DURATION + 1))
        start = int(rng.integers(1, horizon - duration + 2))
        bid = (f"opt-{int(rng.integers(games))}", start, _values(rng, duration))
        return Op(due, SubmitBids(tenant=tenant, bids=(bid,)), "write", conn,
                  _bids_ok)

    warmup = [
        submit(f"w{conn}-{k}", conn)
        for conn in range(conns) for k in range(WARMUP)
    ]
    n = int(round(size.bids_rate * seconds * OPEN_SHARE))
    open_ops = [
        submit(f"b{i}", i % conns, i / size.bids_rate) for i in range(n)
    ]
    lanes = [
        [submit(f"c{conn}-{k}", conn) for k in range(size.lane)]
        for conn in range(conns)
    ]
    return HttpPlan(configure, warmup, open_ops, lanes, ticks=0)


# ------------------------------------------------------------- mixed_http --


class _MixedGen:
    """Per-connection generator of valid mixed requests."""

    def __init__(self, rng, conn: int, tables, games: int, horizon: int):
        self.rng = rng
        self.conn = conn
        self.tables = tables
        self.games = games
        self.horizon = horizon
        self.tenants = [f"q{conn}"]  # tenants served on this connection
        self.open_bids = []  # [due, tenant, opt, start, values] revisable
        self.count = 0

    def submit(self, due, slot):
        rng = self.rng
        self.count += 1
        tenant = f"m{self.conn}-{self.count}"
        duration = int(rng.integers(1, MAX_DURATION + 1))
        start = slot + LEAD + int(rng.integers(0, 20))
        start = min(start, self.horizon - duration + 1)
        opt = f"opt-{int(rng.integers(self.games))}"
        values = _values(rng, duration)
        self.tenants.append(tenant)
        self.open_bids.append([due, tenant, opt, start, values])
        request = SubmitBids(
            tenant=tenant, bids=((opt, start, values),), revisable=True
        )
        return Op(due, request, "write", self.conn, _bids_ok)

    def revise(self, due, window):
        """Raise one of this connection's bids submitted within ``window``
        seconds before ``due`` (any earlier bid when ``window`` is None)."""
        candidates = [
            bid for bid in self.open_bids
            if window is None or due - window[1] <= bid[0] <= due - window[0]
        ]
        if not candidates:
            return None
        bid = candidates[int(self.rng.integers(len(candidates)))]
        _, tenant, opt, start, values = bid
        raised = tuple(
            v + float(self.rng.uniform(0.05, 0.5)) for v in values
        )
        bid[4] = raised
        request = ReviseBid(
            tenant=tenant,
            optimization=opt,
            new_values=tuple((start + k, v) for k, v in enumerate(raised)),
        )
        return Op(due, request, "write", self.conn, _revise_ok)

    def ledger(self, due):
        tenant = self.tenants[int(self.rng.integers(len(self.tenants)))]
        return Op(due, LedgerQuery(tenant=tenant), "read", self.conn,
                  _ledger_ok(tenant))

    def query(self, due):
        rng = self.rng
        tenant = self.tenants[int(rng.integers(len(self.tenants)))]
        request = RunQuery(
            tenant=tenant,
            query="members",
            table=self.tables[int(rng.integers(len(self.tables)))],
            halo=int(rng.integers(HALOS)),
        )
        return Op(due, request, "read", self.conn, _query_ok)

    def op(self, kind, due, slot, window):
        """One request of ``kind`` (see ``MIXED_KINDS``); a revision with
        no bid to raise yet becomes a submission."""
        if kind == "revise":
            op = self.revise(due, window)
            return op if op is not None else self.submit(due, slot)
        if kind == "submit":
            return self.submit(due, slot)
        return self.ledger(due) if kind == "ledger" else self.query(due)


def mixed_plan(seed: int, size: Size, seconds: float, conns: int) -> HttpPlan:
    """Revisable SubmitBids, ReviseBid, LedgerQuery and RunQuery in equal
    shares, plus AdvanceSlots(1) ticks on a fixed cadence on connection
    0; the closed loop sends the same mix unticked."""
    rng = _rng(seed, 2)
    open_seconds = seconds * OPEN_SHARE
    ticks = int(open_seconds / TICK_INTERVAL)
    horizon = ticks + LEAD + 40
    games = size.mixed_games
    configure = Configure(
        optimizations=tuple(_costs("opt", games, GRID_MEAN_COST).items()),
        horizon=horizon,
    )
    tables = [f"snap_{k:02d}" for k in range(1, SNAPSHOTS + 1)]
    gens = [
        _MixedGen(rng, conn, tables, games, horizon)
        for conn in range(conns)
    ]

    warmup = []
    for gen in gens:
        for _ in range(5):
            warmup.append(gen.submit(0.0, 0))
        for _ in range(5):
            warmup.append(gen.revise(0.0, None))
            warmup.append(gen.ledger(0.0))
        for table in tables:
            for halo in range(2):
                warmup.append(
                    Op(0.0, RunQuery(tenant=gen.tenants[0], query="members",
                                     table=table, halo=halo),
                       "read", gen.conn, _query_ok)
                )
        gen.open_bids.clear()  # open-loop revisions only touch open-loop bids

    n = int(round(size.mixed_rate * open_seconds))
    kinds = rng.permutation(np.arange(n) % len(MIXED_KINDS))
    open_ops = [
        Op(k * TICK_INTERVAL, AdvanceSlots(slots=1), "tick", 0, _tick_ok(k))
        for k in range(1, ticks + 1)
    ]
    for i in range(n):
        due = i / size.mixed_rate
        slot = int(due / TICK_INTERVAL)  # ticks due by now
        open_ops.append(
            gens[i % conns].op(MIXED_KINDS[kinds[i]], due, slot, REVISE_AGE)
        )

    lanes = []
    for gen in gens:
        gen.open_bids.clear()
        lane = [
            gen.op(MIXED_KINDS[int(k)], 0.0, ticks, None)
            for k in rng.integers(len(MIXED_KINDS), size=size.lane)
        ]
        lanes.append(lane)
    return HttpPlan(configure, warmup, open_ops, lanes, ticks=ticks)

"""Seeded populations, login attempt streams and their reference decisions.

Everything the program receives is generated here from ``--seed``: the
click-point passwords, each account's guess variants and the order in
which each connection plays them.  The program never sees the seed.

Guess variants.  Each account has :data:`VARIANTS` fixed guesses: the
first two are the password jittered by at most :data:`JITTER` pixels per
coordinate (inside the r=9 tolerance), the last two move one click
:data:`WRONG_SHIFT` pixels away (outside it).  With ``lockout=none`` a
decision depends only on the account and the guess, so the reference
decides each ``(account, variant)`` pair once and every attempt of the
stream is checked against that table.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Image the deployment serves (the program's ``cars`` image).
IMAGE = "cars"
TOLERANCE_PX = 9
CLICKS = 5
VARIANTS = 4
RIGHT_VARIANTS = (0, 1)
JITTER = 3
WRONG_SHIFT = 40
MARGIN = 48

#: Connections the generator opens (one per schedulable CPU, at most 2).
CONNECTIONS = 2


def account_name(index: int) -> str:
    """Account name of population member *index*."""
    return f"u{index:07d}"


def passwords(seed: int, count: int, width: int, height: int) -> np.ndarray:
    """``(count, CLICKS, 2)`` integer click-points, seeded."""
    rng = np.random.default_rng((seed, 1))
    xs = rng.integers(MARGIN, width - MARGIN, size=(count, CLICKS))
    ys = rng.integers(MARGIN, height - MARGIN, size=(count, CLICKS))
    return np.stack([xs, ys], axis=2)


def guesses(seed: int, truth: np.ndarray) -> np.ndarray:
    """``(count, VARIANTS, CLICKS, 2)`` guess variants for every account."""
    rng = np.random.default_rng((seed, 2))
    count = truth.shape[0]
    out = np.repeat(truth[:, None, :, :], VARIANTS, axis=1).copy()
    jitter = rng.integers(-JITTER, JITTER + 1, size=(count, len(RIGHT_VARIANTS), CLICKS, 2))
    out[:, : len(RIGHT_VARIANTS)] += jitter
    moved = rng.integers(0, CLICKS, size=(count, VARIANTS - len(RIGHT_VARIANTS)))
    for slot, variant in enumerate(range(len(RIGHT_VARIANTS), VARIANTS)):
        rows = np.arange(count)
        out[rows, variant, moved[:, slot], 0] += WRONG_SHIFT
    return out


def points_of(array: np.ndarray):
    """Program ``Point`` objects for one ``(CLICKS, 2)`` array."""
    from repro.geometry.point import Point

    return [Point.xy(int(x), int(y)) for x, y in array.tolist()]


class Population:
    """A seeded population with its guess variants."""

    def __init__(self, seed: int, count: int) -> None:
        from repro.study.image import cars_image

        image = cars_image()
        self.seed = seed
        self.count = count
        self.names = [account_name(i) for i in range(count)]
        self.truth = passwords(seed, count, image.width, image.height)
        self.variants = guesses(seed, self.truth)

    def accounts(self) -> List[Tuple[str, list]]:
        """``(username, points)`` pairs for ``enroll_many``."""
        return [(name, points_of(self.truth[i])) for i, name in enumerate(self.names)]


def reference_decisions(population: Population) -> np.ndarray:
    """``(count, VARIANTS)`` bool table: does each guess variant log in?

    Decided by the program's in-process ``VerificationService.login_many``
    over a memory store holding the same population under
    ``lockout=none``; the tests pin that path bit-identical to the scalar
    one.
    """
    from repro.core.centered import CenteredDiscretization
    from repro.obs import NULL_REGISTRY
    from repro.passwords.passpoints import PassPointsSystem
    from repro.passwords.policy import LockoutPolicy
    from repro.passwords.service import VerificationService
    from repro.passwords.store import PasswordStore
    from repro.study.image import cars_image

    store = PasswordStore(
        system=PassPointsSystem(
            image=cars_image(),
            scheme=CenteredDiscretization.for_pixel_tolerance(2, TOLERANCE_PX),
        ),
        policy=LockoutPolicy(max_failures=None),
        registry=NULL_REGISTRY,
    )
    store.enroll_many(population.accounts())
    service = VerificationService(store, registry=NULL_REGISTRY)
    attempts = [
        (name, points_of(population.variants[i, v]))
        for i, name in enumerate(population.names)
        for v in range(VARIANTS)
    ]
    outcomes = service.login_many(attempts)
    accepted = np.array([o.status == "accept" for o in outcomes], dtype=bool)
    return accepted.reshape(population.count, VARIANTS)


# -- attempt streams ---------------------------------------------------------


class Stream:
    """One connection's attempts: parallel arrays of account and variant.

    ``warmup`` leading attempts are played before timing starts.  With
    ``cyclic`` set the generator wraps around after the last attempt
    (past the warm-up), so a run of any length plays the same mix.
    """

    def __init__(self, accounts: np.ndarray, variants: np.ndarray, warmup: int, cyclic: bool):
        self.accounts = accounts
        self.variants = variants
        self.warmup = warmup
        self.cyclic = cyclic

    def __len__(self) -> int:
        return len(self.accounts)

    def encode(self, population: Population) -> List[bytes]:
        """Request lines (newline-terminated), request id = stream position."""
        lines = []
        names = population.names
        table = population.variants
        for position, (account, variant) in enumerate(
            zip(self.accounts.tolist(), self.variants.tolist())
        ):
            points = table[account, variant].tolist()
            lines.append(
                json.dumps(
                    {"op": "login", "id": position, "user": names[account], "points": points},
                    separators=(",", ":"),
                ).encode()
                + b"\n"
            )
        return lines

    def position(self, sent: int) -> int:
        """Stream position of the *sent*-th request of this connection."""
        if sent < len(self.accounts) or not self.cyclic:
            return sent
        body = len(self.accounts) - self.warmup
        return self.warmup + (sent - self.warmup) % body


def storm_streams(seed: int, accounts: int, body_per_connection: int) -> List[Stream]:
    """``login-storm``: a hot population, half the attempts wrong.

    Accounts are dealt to connections by index parity.  The warm-up
    touches each account of the connection once, so the timed cycle finds
    every record and throttle cached; the cycle then draws accounts
    uniformly and alternates right and wrong variants.
    """
    rng = np.random.default_rng((seed, 3))
    streams = []
    for connection in range(CONNECTIONS):
        owned = np.arange(connection, accounts, CONNECTIONS)
        warm_accounts = rng.permutation(owned)
        warm_variants = np.zeros(len(owned), dtype=np.int64)
        body_accounts = rng.choice(owned, size=body_per_connection)
        right = rng.integers(0, len(RIGHT_VARIANTS), size=body_per_connection)
        wrong = rng.integers(len(RIGHT_VARIANTS), VARIANTS, size=body_per_connection)
        body_variants = np.where(np.arange(body_per_connection) % 2 == 0, right, wrong)
        streams.append(
            Stream(
                np.concatenate([warm_accounts, body_accounts]),
                np.concatenate([warm_variants, body_variants]),
                warmup=len(owned),
                cyclic=True,
            )
        )
    return streams


#: ``login-cluster``: one attempt in FIRST_TOUCH_EVERY goes to an account
#: no earlier attempt touched; one in WRONG_EVERY guesses wrong.
FIRST_TOUCH_EVERY = 32
WRONG_EVERY = 10
#: Skew of the choice among already-touched accounts: the touched account
#: of arrival rank ``floor(n * u ** SKEW)`` for uniform ``u``, so the
#: earliest arrivals stay the most popular (a Zipf-like head).  Kept mild
#: so that no handful of accounts decides which shard worker is busiest,
#: which would make throughput depend on the seed.
SKEW = 1.5


def cluster_streams(seed: int, per_connection: int, warmup: int) -> Tuple[List[Stream], int]:
    """``login-cluster`` streams and the population size they need.

    Each connection runs an arrival process over its own accounts: every
    :data:`FIRST_TOUCH_EVERY`-th attempt touches a fresh account, the rest
    pick a touched account with the skewed rank rule.  The first-touch share is therefore the same over any prefix,
    so it does not drift with run length.
    """
    rng = np.random.default_rng((seed, 4))
    fresh_per_connection = per_connection // FIRST_TOUCH_EVERY + 1
    population = fresh_per_connection * CONNECTIONS
    streams = []
    for connection in range(CONNECTIONS):
        fresh = connection + CONNECTIONS * rng.permutation(fresh_per_connection)
        positions = np.arange(per_connection)
        is_fresh = positions % FIRST_TOUCH_EVERY == 0
        touched_before = np.cumsum(is_fresh) - is_fresh  # fresh accounts before each
        ranks = np.floor(touched_before * rng.random(per_connection) ** SKEW).astype(np.int64)
        arrival = np.where(is_fresh, touched_before, ranks)
        accounts = fresh[arrival]
        wrong = (positions + 3 * connection) % WRONG_EVERY == WRONG_EVERY - 1
        variants = np.where(
            wrong,
            rng.integers(len(RIGHT_VARIANTS), VARIANTS, size=per_connection),
            rng.integers(0, len(RIGHT_VARIANTS), size=per_connection),
        )
        streams.append(Stream(accounts, variants, warmup=warmup, cyclic=False))
    return streams, population


# -- mix and throttle references ------------------------------------------------


def mix_of(streams: Sequence[Stream], sent: Sequence[int], decisions: np.ndarray) -> Dict[str, float]:
    """Accept / reject / first-touch shares of the timed attempts.

    *sent* gives, per connection, how many requests were sent; the warm-up
    prefix is excluded.  Shares of a cyclic stream are taken over whole
    cycles (the design), so they do not depend on where the run stopped.
    """
    accepted = total = first = 0
    for stream, count in zip(streams, sent):
        stop = len(stream) if stream.cyclic else count
        accounts = stream.accounts[:stop]
        variants = stream.variants[:stop]
        seen = np.zeros(decisions.shape[0], dtype=bool)
        seen[accounts[: stream.warmup]] = True
        timed_accounts = accounts[stream.warmup :]
        timed_variants = variants[stream.warmup :]
        _, first_index = np.unique(timed_accounts, return_index=True)
        first += int(np.sum(~seen[timed_accounts[first_index]]))
        accepted += int(np.sum(decisions[timed_accounts, timed_variants]))
        total += len(timed_accounts)
    total = max(total, 1)
    return {
        "accept_share": accepted / total,
        "reject_share": (total - accepted) / total,
        "locked_share": 0.0,
        "first_touch_share": first / total,
    }


def expected_throttles(
    streams: Sequence[Stream], sent: Sequence[int], decisions: np.ndarray,
    timed_from: Sequence[int],
) -> Tuple[Dict[int, dict], dict, int]:
    """Throttle state of every touched account after the sent prefixes,
    the state of an untouched account, and the number of attempts from
    ``timed_from`` on (per connection) that changed an account's throttle.

    Replays the program's own ``AccountThrottle`` under ``lockout=none``
    over each account's attempts in stream order (each account belongs to
    one connection, whose order the server preserves).
    """
    from repro.passwords.policy import AccountThrottle, LockoutPolicy

    policy = LockoutPolicy(max_failures=None)
    throttles: Dict[int, AccountThrottle] = {}
    changes = 0
    for stream, count, first in zip(streams, sent, timed_from):
        positions = np.array([stream.position(k) for k in range(count)], dtype=np.int64)
        accounts = stream.accounts[positions].tolist()
        oks = decisions[stream.accounts[positions], stream.variants[positions]].tolist()
        for k, (account, ok) in enumerate(zip(accounts, oks)):
            throttle = throttles.get(account)
            if throttle is None:
                throttle = throttles[account] = AccountThrottle(policy)
            before = throttle.failures
            throttle.record(ok)
            if throttle.failures != before and k >= first:
                changes += 1
    states = {account: throttle.state() for account, throttle in throttles.items()}
    return states, AccountThrottle(policy).state(), changes

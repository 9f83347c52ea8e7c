"""Requests: what the fleet serves, and how their compute demand is drawn.

A :class:`Request` is one unit of user-facing work — a vision kernel run on
one input — reduced to the quantity the pacing model needs: the time the
task would take on a single sustained core.  Service models turn a random
stream into concrete demands:

* :class:`FixedService` — every request costs the same (the paper's
  five-second canonical task),
* :class:`LognormalService` — heavy-tailed demands around a median, the
  usual shape of interactive request sizes,
* :class:`SuiteService` — demands drawn from the Table 1 kernel suite at
  its input-size classes (:mod:`repro.workloads`), so a request literally
  is "sobel on a class-C image" with the back-of-envelope single-core time
  of that workload descriptor.

:func:`generate_requests` zips an arrival process with a service model
under a single seed, split with :class:`numpy.random.SeedSequence` so the
arrival stream and the demand stream are independent but both reproducible.

Usage:

>>> from repro.traffic.arrivals import DeterministicArrivals
>>> from repro.traffic.request import FixedService, generate_requests
>>> reqs = generate_requests(
...     DeterministicArrivals(5.0), FixedService(5.0), n=3, seed=0
... )
>>> [(r.index, r.arrival_s, r.sustained_time_s) for r in reqs]
[(0, 0.0, 5.0), (1, 5.0, 5.0), (2, 10.0, 5.0)]
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.traffic.arrivals import DEFAULT_CHUNK, ArrivalProcess


@dataclass(frozen=True)
class Request:
    """One unit of work arriving at the fleet."""

    index: int
    arrival_s: float
    #: Single-core sustained execution time — the pacing model's currency.
    sustained_time_s: float
    kernel: str = ""
    input_label: str = ""
    #: Optional latency budget, relative to arrival.  A central-queue engine
    #: abandons the request if it has not *started* by the deadline; a served
    #: request that *completes* past it counts as a deadline miss.  ``None``
    #: means the request waits forever and never misses.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError("arrival time must be finite and non-negative")
        if not 0 < self.sustained_time_s < math.inf:
            raise ValueError("sustained time must be positive and finite")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline must be positive (or None)")

    @property
    def deadline_at_s(self) -> float:
        """Absolute deadline instant (``inf`` when no deadline is set)."""
        if self.deadline_s is None:
            return float("inf")
        return self.arrival_s + self.deadline_s


class ServiceModel(ABC):
    """Draws per-request compute demands."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        """Return ``n`` tuples of (sustained seconds, kernel, input label)."""

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, tuple[str, ...] | str, tuple[str, ...] | str]:
        """Array form of :meth:`sample`: (demands, kernels, input labels).

        Demands come back as a float array; kernels and labels are either a
        single string (when uniform across the block) or one string per
        request.  Successive calls on one generator concatenate to the same
        draw stream as a single whole-``n`` call — the property tests lock
        this per model — so chunked request generation stays bit-identical
        to :func:`generate_requests`.
        """
        draws = self.sample(n, rng)
        demands = np.array([d[0] for d in draws], dtype=float)
        return demands, tuple(d[1] for d in draws), tuple(d[2] for d in draws)


@dataclass(frozen=True)
class FixedService(ServiceModel):
    """Every request takes the same sustained single-core time."""

    sustained_time_s: float
    kernel: str = "fixed"
    input_label: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.sustained_time_s < math.inf:
            raise ValueError("sustained time must be positive and finite")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        return [(self.sustained_time_s, self.kernel, self.input_label)] * n

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        return np.full(n, self.sustained_time_s), self.kernel, self.input_label


@dataclass(frozen=True)
class GammaService(ServiceModel):
    """Gamma-distributed demands with a given mean and coefficient of variation.

    ``cv = 0`` degenerates to :class:`FixedService`; ``cv = 1`` is
    exponential; larger values give burstier request sizes.  The gamma
    family keeps draws strictly positive for any cv.
    """

    mean_s: float
    cv: float = 0.5
    kernel: str = "gamma"

    def __post_init__(self) -> None:
        if not 0 < self.mean_s < math.inf:
            raise ValueError("mean service time must be positive and finite")
        if not 0 <= self.cv < math.inf:
            raise ValueError("coefficient of variation must be finite and non-negative")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        if self.cv == 0:
            draws = np.full(n, self.mean_s)
        else:
            shape = 1.0 / (self.cv * self.cv)
            draws = rng.gamma(shape, self.mean_s / shape, size=n)
            # For large cv the tiny shape parameter makes exact-0.0 draws
            # possible; clamp so every request stays a valid positive task.
            draws = np.maximum(draws, np.finfo(float).tiny)
        return [(float(d), self.kernel, "") for d in draws]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        if self.cv == 0:
            return np.full(n, self.mean_s), self.kernel, ""
        shape = 1.0 / (self.cv * self.cv)
        draws = rng.gamma(shape, self.mean_s / shape, size=n)
        return np.maximum(draws, np.finfo(float).tiny), self.kernel, ""


@dataclass(frozen=True)
class LognormalService(ServiceModel):
    """Lognormal demands: heavy-tailed around ``median_s`` with shape ``sigma``."""

    median_s: float
    sigma: float = 0.5
    kernel: str = "lognormal"

    def __post_init__(self) -> None:
        if not 0 < self.median_s < math.inf:
            raise ValueError("median service time must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        draws = self.median_s * np.exp(self.sigma * rng.standard_normal(n))
        return [(float(d), self.kernel, "") for d in draws]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        return self.median_s * np.exp(self.sigma * rng.standard_normal(n)), self.kernel, ""


@dataclass
class SuiteService(ServiceModel):
    """Demands drawn from the Table 1 kernel suite's input-size classes.

    Each request picks a (kernel, input class) uniformly — or by the given
    weights — from the suite and costs that workload's back-of-envelope
    single-core time at ``frequency_hz``
    (:meth:`~repro.workloads.descriptor.WorkloadDescriptor.single_core_seconds`).
    The suite table is built once and reused, so sampling is cheap
    (eagerly at construction when ``weights`` are given, so a mismatched
    length fails fast; lazily on first sample otherwise).
    """

    frequency_hz: float = 1e9
    kernels: tuple[str, ...] | None = None
    weights: tuple[float, ...] | None = None
    _table: list[tuple[float, str, str]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError("frequency must be positive and finite")
        if self.weights is not None:
            if not all(0 <= w < math.inf for w in self.weights) or not sum(self.weights) > 0:
                raise ValueError("weights must be finite and non-negative with a positive sum")
            self._entries()  # build the table now so a wrong length fails fast

    def _entries(self) -> list[tuple[float, str, str]]:
        if not self._table:
            from repro.workloads import kernel_suite

            suite = kernel_suite()
            names = self.kernels or tuple(sorted(suite))
            for name in names:
                family = suite[name]
                for label in family.input_labels:
                    workload = family.workload(label)
                    seconds = workload.single_core_seconds(self.frequency_hz)
                    self._table.append((seconds, name, label))
        if self.weights is not None and len(self.weights) != len(self._table):
            raise ValueError(
                f"{len(self._table)} suite entries but {len(self.weights)} weights"
            )
        return self._table

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        entries = self._entries()
        probabilities = None
        if self.weights is not None:
            total = sum(self.weights)
            probabilities = [w / total for w in self.weights]
        picks = rng.choice(len(entries), size=n, p=probabilities)
        return [entries[int(i)] for i in picks]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
        chosen = self.sample(n, rng)
        demands = np.array([c[0] for c in chosen], dtype=float)
        return demands, tuple(c[1] for c in chosen), tuple(c[2] for c in chosen)


def _uniform(values: tuple[str, ...]) -> tuple[str, ...] | str:
    """One string when every entry is the same one, else the entries."""
    if len(set(values)) <= 1:
        return values[0] if values else ""
    return values


def _per_row(value: tuple[str, ...] | str, n: int) -> tuple[str, ...] | list[str]:
    return [value] * n if isinstance(value, str) else value


@dataclass(frozen=True)
class RequestBlock:
    """A chunk of the request stream in columnar (array) form.

    The batched engine cores consume these directly, sharded runs ship them
    to rack jobs, and results keep their requests in one.
    :meth:`to_requests` materialises the equivalent :class:`Request`
    objects, bit-identical to what :func:`generate_requests` builds for the
    same indices.  Kernels and input labels are a single string when
    uniform across the block, or one entry per request otherwise.
    ``deadline_s`` is likewise one relative deadline for the whole block
    (``None``: no deadlines) or an array with one per request, NaN marking
    a request without one.  ``index`` holds the request indices when they
    are not the contiguous run from ``start_index`` (a rack's share of a
    stream, or a run's served requests in processing order).

    Columns are validated once, here, by the rules of :class:`Request`:
    arrivals finite and non-negative, demands positive and finite,
    deadlines positive, indices integers, every column the same length.
    """

    start_index: int
    arrival_s: np.ndarray
    sustained_time_s: np.ndarray
    kernels: tuple[str, ...] | str = ""
    input_labels: tuple[str, ...] | str = ""
    deadline_s: float | np.ndarray | None = None
    index: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrival, demand, deadline = self.arrival_s, self.sustained_time_s, self.deadline_s
        n = arrival.size
        columns = (demand, self.index, deadline, self.kernels, self.input_labels)
        if any(isinstance(c, (np.ndarray, tuple)) and len(c) != n for c in columns):
            raise ValueError("request block columns must have equal lengths")
        if not np.all((arrival >= 0) & (arrival < math.inf)):
            raise ValueError("arrival time must be finite and non-negative")
        if not np.all((demand > 0) & (demand < math.inf)):
            raise ValueError("sustained time must be positive and finite")
        if isinstance(deadline, np.ndarray):
            if not np.all(np.isnan(deadline) | (deadline > 0)):
                raise ValueError("deadline must be positive (or None)")
        elif deadline is not None and not deadline > 0:
            raise ValueError("deadline must be positive (or None)")
        if self.index is not None and self.index.dtype.kind not in "iu":
            raise ValueError("request indices must be integers")

    def __len__(self) -> int:
        return self.arrival_s.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestBlock):
            return NotImplemented
        return self.to_requests() == other.to_requests()

    @classmethod
    def empty(cls) -> "RequestBlock":
        """A block of no requests."""
        return cls(0, np.zeros(0), np.zeros(0))

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "RequestBlock":
        """The columns of ``requests``, in their order."""
        n = len(requests)
        deadlines = [r.deadline_s for r in requests]
        deadline = deadlines[0] if n else None
        if any(d != deadline for d in deadlines):
            deadline = np.array([math.nan if d is None else d for d in deadlines])
        return cls(
            0,
            np.fromiter((r.arrival_s for r in requests), dtype=float, count=n),
            np.fromiter((r.sustained_time_s for r in requests), dtype=float, count=n),
            _uniform(tuple(r.kernel for r in requests)),
            _uniform(tuple(r.input_label for r in requests)),
            deadline,
            index=np.fromiter((r.index for r in requests), dtype=np.int64, count=n),
        )

    @classmethod
    def concat(cls, blocks: Sequence["RequestBlock"]) -> "RequestBlock":
        """One block holding ``blocks``' rows in order."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.empty()
        sizes = [len(b) for b in blocks]

        def joined(name: str) -> tuple[str, ...] | str:
            values = [getattr(b, name) for b in blocks]
            if all(isinstance(v, str) and v == values[0] for v in values):
                return values[0]
            return tuple(x for v, size in zip(values, sizes) for x in _per_row(v, size))

        deadline = blocks[0].deadline_s
        if any(isinstance(b.deadline_s, np.ndarray) or b.deadline_s != deadline for b in blocks):
            deadline = np.concatenate(
                [
                    b.deadline_s
                    if isinstance(b.deadline_s, np.ndarray)
                    else np.full(len(b), math.nan if b.deadline_s is None else b.deadline_s)
                    for b in blocks
                ]
            )
        return cls(
            0,
            np.concatenate([b.arrival_s for b in blocks]),
            np.concatenate([b.sustained_time_s for b in blocks]),
            joined("kernels"),
            joined("input_labels"),
            deadline,
            index=np.concatenate([b.indices for b in blocks]),
        )

    @property
    def indices(self) -> np.ndarray:
        """The request index of every row."""
        if self.index is not None:
            return self.index
        return np.arange(self.start_index, self.start_index + len(self), dtype=np.int64)

    def deadline_at(self) -> np.ndarray | None:
        """Every row's absolute deadline (``inf`` where a request has none).

        ``None`` when no request has one.  Bit-identical to each request's
        :attr:`Request.deadline_at_s`.
        """
        deadline = self.deadline_s
        if deadline is None:
            return None
        if isinstance(deadline, np.ndarray):
            return np.where(np.isnan(deadline), math.inf, self.arrival_s + deadline)
        return self.arrival_s + deadline

    def index_order(self) -> np.ndarray | None:
        """Rows sorted by request index (``None`` when already sorted)."""
        index = self.indices
        if np.all(index[1:] > index[:-1]):
            return None
        return np.argsort(index, kind="stable")

    def in_index_order(self) -> "RequestBlock":
        """The rows sorted by request index."""
        order = self.index_order()
        return self if order is None else self.take(order)

    def take(self, rows: np.ndarray) -> "RequestBlock":
        """The block of rows ``rows`` (integer positions), in that order."""
        def pick(column):
            if isinstance(column, (str, float, int)) or column is None:
                return column
            if isinstance(column, np.ndarray):
                return column[rows]
            return tuple(column[i] for i in rows.tolist())

        return RequestBlock(
            0,
            self.arrival_s[rows],
            self.sustained_time_s[rows],
            pick(self.kernels),
            pick(self.input_labels),
            pick(self.deadline_s),
            index=self.indices[rows],
        )

    def request_at(self, i: int) -> Request:
        """Row ``i`` as a :class:`Request`."""
        kernels, labels, deadline = self.kernels, self.input_labels, self.deadline_s
        if isinstance(deadline, np.ndarray):
            deadline = None if math.isnan(deadline[i]) else float(deadline[i])
        return Request(
            self.start_index + i if self.index is None else int(self.index[i]),
            float(self.arrival_s[i]),
            float(self.sustained_time_s[i]),
            kernels if isinstance(kernels, str) else kernels[i],
            labels if isinstance(labels, str) else labels[i],
            deadline,
        )

    def to_requests(self) -> list[Request]:
        """Materialise the block as :class:`Request` objects."""
        n = len(self)
        deadline = self.deadline_s
        if isinstance(deadline, np.ndarray):
            deadlines = [None if d != d else d for d in deadline.tolist()]
        else:
            deadlines = [deadline] * n
        return [
            Request(*fields)
            for fields in zip(
                self.indices.tolist(),
                self.arrival_s.tolist(),
                self.sustained_time_s.tolist(),
                _per_row(self.kernels, n),
                _per_row(self.input_labels, n),
                deadlines,
            )
        ]


def generate_request_blocks(
    arrivals: ArrivalProcess,
    service: ServiceModel,
    n: int,
    seed: int | np.random.SeedSequence = 0,
    deadline_s: float | None = None,
    chunk_size: int = DEFAULT_CHUNK,
):
    """Stream the :func:`generate_requests` stream as :class:`RequestBlock`s.

    Same seed-splitting discipline as :func:`generate_requests` — one child
    stream for arrivals, one for service demands — and the arrival/service
    block draws are locked bit-identical to their scalar forms, so
    concatenating the yielded blocks reproduces ``generate_requests(...)``
    exactly while holding only ``chunk_size`` requests in memory at a time.
    """
    if n < 1:
        raise ValueError("at least one request is required")
    if deadline_s is not None and not deadline_s > 0:
        raise ValueError("deadline must be positive (or None)")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    arrival_seq, service_seq = root.spawn(2)
    arrival_rng = np.random.default_rng(arrival_seq)
    service_rng = np.random.default_rng(service_seq)

    def blocks():
        start = 0
        for times in arrivals.sample_blocks(n, arrival_rng, chunk_size):
            demands, kernels, labels = service.sample_block(times.size, service_rng)
            yield RequestBlock(start, times, demands, kernels, labels, deadline_s)
            start += times.size

    return blocks()


def generate_requests(
    arrivals: ArrivalProcess,
    service: ServiceModel,
    n: int,
    seed: int | np.random.SeedSequence = 0,
    deadline_s: float | None = None,
) -> list[Request]:
    """Materialise ``n`` requests from an arrival process and a service model.

    The seed is split into independent child streams for arrivals and
    service demands, so the same seed always yields the same requests and
    changing the service model never perturbs the arrival times.
    ``deadline_s`` attaches the same relative latency budget to every
    request (``None`` leaves them deadline-free).
    """
    if n < 1:
        raise ValueError("at least one request is required")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    arrival_seq, service_seq = root.spawn(2)
    times = arrivals.sample(n, np.random.default_rng(arrival_seq))
    demands = service.sample(n, np.random.default_rng(service_seq))
    return [
        Request(
            index=i,
            arrival_s=float(times[i]),
            sustained_time_s=demands[i][0],
            kernel=demands[i][1],
            input_label=demands[i][2],
            deadline_s=deadline_s,
        )
        for i in range(n)
    ]

"""The paper's primary contribution: history-based front-end prediction.

§6: for each client group — an ECS /24 or an LDNS's client population —
take one prediction interval (a day) of beacon measurements, keep the
targets with at least 20 measurements from the group, score each by a low
latency percentile (25th by default; the paper found 25th and median
equivalent, and higher percentiles too noisy to predict with), and map
the group to the best-scoring target, which may well be anycast itself.

The resulting mapping drives DNS redirection next interval via
:class:`repro.dns.authoritative.StaticMappingPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import PredictionError
from repro.dns.authoritative import ANYCAST_TARGET, StaticMappingPolicy
from repro.measurement.aggregate import GroupedDailyAggregates


@dataclass(frozen=True)
class PredictorConfig:
    """Prediction-scheme parameters (§6 defaults).

    Attributes:
        metric_percentile: Latency percentile used to score a target.
            The paper evaluates the 25th percentile and median, finds them
            equivalent, and presents 25th-percentile results.
        min_samples: Minimum measurements a target needs from the group
            during the prediction interval to be considered ("we select
            among the front-ends with 20+ measurements").
    """

    metric_percentile: float = 25.0
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 <= self.metric_percentile <= 100.0:
            raise PredictionError(
                f"metric_percentile must be in [0, 100], "
                f"got {self.metric_percentile}"
            )
        if self.min_samples < 1:
            raise PredictionError("min_samples must be >= 1")


@dataclass(frozen=True)
class Prediction:
    """One group's mapping for the next interval.

    Attributes:
        group: The grouping key (client /24 or LDNS id).
        target_id: Chosen target ('anycast' or a front-end id).
        metric_ms: The chosen target's score.
        anycast_metric_ms: Anycast's score, when anycast qualified
            (``None`` if anycast lacked enough samples).
    """

    group: str
    target_id: str
    metric_ms: float
    anycast_metric_ms: Optional[float]

    @property
    def predicted_gain_ms(self) -> float:
        """Expected improvement over anycast (0 when anycast chosen or
        unmeasured)."""
        if self.anycast_metric_ms is None or self.target_id == ANYCAST_TARGET:
            return 0.0
        return self.anycast_metric_ms - self.metric_ms


class HistoryBasedPredictor:
    """Builds per-group target mappings from one day of aggregates."""

    def __init__(self, config: Optional[PredictorConfig] = None) -> None:
        self._config = config or PredictorConfig()

    @property
    def config(self) -> PredictorConfig:
        """The prediction parameters."""
        return self._config

    def choose_target(
        self, group: str, rows: Iterable[Tuple[str, int, float]]
    ) -> Optional[Prediction]:
        """The §6 scoring core over one group's ``(target_id, count,
        score)`` rows, ``score`` being the target's
        ``metric_percentile`` latency (any value for rows below the
        sample cut, which are dropped here).

        This is the single definition of "score and choose" — the batch
        paths (:meth:`predict_day`, :meth:`predict_group`), the hybrid
        redirector and the live service's online predictor
        (:mod:`repro.service.predictor`) all reach it, so they can only
        ever disagree if their *windows* differ, never their scoring.
        Returns ``None`` when no target (anycast included) reaches the
        sample cut — such groups simply stay on anycast.
        """
        cut = self._config.min_samples
        best: Optional[Tuple[float, bool, str]] = None
        anycast_score: Optional[float] = None
        for target_id, count, score in rows:
            if count < cut:
                continue
            if target_id == ANYCAST_TARGET:
                anycast_score = score
            # Deterministic tie-break; anycast wins ties so prediction
            # only redirects when a front-end is strictly better.
            rank = (score, target_id != ANYCAST_TARGET, target_id)
            if best is None or rank < best:
                best = rank
        if best is None:
            return None
        return Prediction(
            group=group,
            target_id=best[2],
            metric_ms=best[0],
            anycast_metric_ms=anycast_score,
        )

    def _scored_groups(
        self, aggregates: GroupedDailyAggregates, day: int
    ) -> Iterator[Tuple[str, Iterator[Tuple[str, int, float]]]]:
        """``(group, rows)`` for every group with a target reaching the
        sample cut on ``day``, the ``(target_id, count, score)`` rows
        read from one bulk
        :meth:`GroupedDailyAggregates.day_percentiles` table."""
        cfg = self._config
        table = aggregates.day_percentiles(
            day, (cfg.metric_percentile,), cfg.min_samples
        )
        counts = table.counts.tolist()
        scores = table.values[:, 0].tolist()
        bounds = table.group_rows.tolist()
        for group, start, stop in zip(table.groups, bounds, bounds[1:]):
            yield group, zip(
                table.targets[start:stop],
                counts[start:stop],
                scores[start:stop],
            )

    def predict_group(
        self, aggregates: GroupedDailyAggregates, day: int, group: str
    ) -> Optional[Prediction]:
        """Prediction for one group from one day's measurements.

        Returns ``None`` when no target (anycast included) reaches the
        sample cut — such groups simply stay on anycast.
        """
        for name, rows in self._scored_groups(aggregates, day):
            if name == group:
                return self.choose_target(group, rows)
        return None

    def predict_day(
        self, aggregates: GroupedDailyAggregates, day: int
    ) -> Dict[str, Prediction]:
        """Predictions for every group measurable on ``day``, in group
        order."""
        predictions: Dict[str, Prediction] = {}
        for group, rows in sorted(
            self._scored_groups(aggregates, day), key=lambda item: item[0]
        ):
            prediction = self.choose_target(group, rows)
            if prediction is not None:
                predictions[group] = prediction
        return predictions

    def mapping_for_day(
        self,
        aggregates: GroupedDailyAggregates,
        day: int,
        only_redirections: bool = True,
    ) -> Dict[str, str]:
        """group → target mapping (dropping anycast entries by default,
        since anycast is the policy fallback anyway)."""
        mapping: Dict[str, str] = {}
        for group, prediction in self.predict_day(aggregates, day).items():
            if only_redirections and prediction.target_id == ANYCAST_TARGET:
                continue
            mapping[group] = prediction.target_id
        return mapping

    def build_policy(
        self,
        ecs_aggregates: Optional[GroupedDailyAggregates] = None,
        ldns_aggregates: Optional[GroupedDailyAggregates] = None,
        day: int = 0,
    ) -> StaticMappingPolicy:
        """A deployable DNS policy from one day's aggregates.

        Raises:
            PredictionError: if neither aggregate source is given.
        """
        if ecs_aggregates is None and ldns_aggregates is None:
            raise PredictionError("need ECS or LDNS aggregates (or both)")
        ecs_mapping = (
            self.mapping_for_day(ecs_aggregates, day)
            if ecs_aggregates is not None
            else {}
        )
        ldns_mapping = (
            self.mapping_for_day(ldns_aggregates, day)
            if ldns_aggregates is not None
            else {}
        )
        return StaticMappingPolicy(
            ecs_mapping=ecs_mapping, ldns_mapping=ldns_mapping
        )

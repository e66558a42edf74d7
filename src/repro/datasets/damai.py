"""A deterministic Damai.com-like real dataset (Table 3 of the paper).

The paper's real experiment uses 50 popular Beijing events scraped from
Damai.com and Yes/No attendance feedback from 19 human labellers.  We
cannot redistribute that data, so this module generates — from a fixed
seed — a catalogue with *exactly the published schema*:

* six categories with the paper's sub-categories (Table 3);
* performers (male / female / group), country/district (11 values),
  lowest-price band (8 values), day of week (Wed/Fri/Sat/Sun/Any);
* a normalised user-event distance in [0, 1];
* the binary categorical encoding of [26], concatenated to a
  20-dimensional vector and divided by d = 20 (``||x|| <= 1``);
* time/venue-derived conflicting event pairs;
* 19 users whose deterministic Yes/No feedback has yes-counts in the
  paper's observed 7-26 range (Table 7 last row).

The encoding layout (3 + 3 + 2 + 4 + 4 + 3 + 1 = 20 dims):

====================  =====  =========================================
Field                 bits   Vocabulary
====================  =====  =========================================
category              3      6 categories
subcategory (rank)    3      position within its category (max 7)
performers            2      male / female / group
country/district      4      11 values
lowest price band     4      8 bands
day of week           3      Wed / Fri / Sat / Sun / Any
distance              1      numeric in [0, 1]
====================  =====  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.datasets.encoding import CategoricalField, FeatureSchema, NumericField
from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.events import Event
from repro.ebsn.users import User
from repro.exceptions import ConfigurationError
from repro.linalg.sampling import make_rng

#: Table 3 categories and sub-categories, verbatim.
CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "Pop Concert": ("pop", "classic", "folk", "jazz"),
    "Theater": ("drama", "opera", "musical", "children drama"),
    "Sports": ("basketball", "football", "boxing"),
    "Folk Art": ("cross talk", "magic", "acrobatics"),
    "Music": ("piano", "orchestral", "choral"),
    "Movie": (
        "adventure",
        "cartoon",
        "romance",
        "fantasy",
        "documentary",
        "horror",
        "comedy",
    ),
}

PERFORMERS = ("male", "female", "group")

COUNTRIES = (
    "Hong Kong",
    "Taiwan",
    "Mainland China",
    "Japan",
    "USA",
    "UK",
    "France",
    "Denmark",
    "Germany",
    "Canada",
    "Poland",
)

PRICE_BANDS = (
    "0-49",
    "50-99",
    "100-149",
    "150-199",
    "200-299",
    "300-399",
    "400-599",
    ">=600",
)

DAYS_OF_WEEK = ("Wed", "Fri", "Sat", "Sun", "Any")

NUM_EVENTS = 50
NUM_USERS = 19
FEATURE_DIM = 20

#: Yes-count range observed in Table 7's last row (c_u = full values 7..26).
MIN_YES = 7
MAX_YES = 26

#: Beijing-ish bounding box for venue/home coordinates (degrees).
_LON_RANGE = (116.20, 116.60)
_LAT_RANGE = (39.80, 40.05)

#: Evening start hours events are scheduled at.
_START_HOURS = (14.0, 19.0, 19.5, 20.0)
_DURATION_HOURS = 2.5


def build_schema() -> FeatureSchema:
    """The 20-dimensional Table 3 schema."""
    max_subcategories = max(len(v) for v in CATEGORIES.values())
    schema = FeatureSchema(
        [
            CategoricalField("category", tuple(CATEGORIES)),
            CategoricalField(
                "subcategory_rank",
                tuple(str(i + 1) for i in range(max_subcategories)),
            ),
            CategoricalField("performers", PERFORMERS),
            CategoricalField("country", COUNTRIES),
            CategoricalField("price_band", PRICE_BANDS),
            CategoricalField("day_of_week", DAYS_OF_WEEK),
            NumericField("distance", 0.0, 1.0),
        ]
    )
    if schema.dim != FEATURE_DIM:
        raise ConfigurationError(
            f"schema dimension {schema.dim} != expected {FEATURE_DIM}"
        )
    return schema


@dataclass(frozen=True)
class DamaiEvent:
    """One catalogue event with schedule and venue metadata."""

    event_id: int
    title: str
    category: str
    subcategory: str
    performers: str
    country: str
    price_band: str
    day_index: int  # 0..13, day within a two-week window
    start_hour: float
    venue: Tuple[float, float]

    @property
    def day_of_week(self) -> str:
        """The Table 3 day-of-week value (Mon/Tue/Thu collapse to "Any")."""
        weekday = self.day_index % 7  # 0 = Monday
        return {2: "Wed", 4: "Fri", 5: "Sat", 6: "Sun"}.get(weekday, "Any")

    @property
    def slot(self) -> "TimeSlot":
        """The event's schedule as a :class:`~repro.ebsn.timeslots.TimeSlot`."""
        from repro.ebsn.timeslots import TimeSlot

        return TimeSlot(
            day_index=self.day_index,
            start_hour=self.start_hour,
            duration_hours=_DURATION_HOURS,
        )

    @property
    def end_hour(self) -> float:
        return self.start_hour + _DURATION_HOURS

    def overlaps(self, other: "DamaiEvent") -> bool:
        """Whether two events clash in time (the conflict criterion)."""
        return self.slot.overlaps(other.slot)

    @property
    def tags(self) -> Tuple[str, str]:
        """Category/sub-category tags used by the OnlineGreedy baseline."""
        return (self.category, self.subcategory)


@dataclass(frozen=True)
class DamaiUser:
    """One labelled user: home location and deterministic Yes set."""

    user_id: int
    home: Tuple[float, float]
    yes_events: FrozenSet[int]
    preferred_tags: FrozenSet[str]

    @property
    def yes_count(self) -> int:
        return len(self.yes_events)

    def accepts(self, event_id: int) -> bool:
        """Ground-truth feedback for one event."""
        return event_id in self.yes_events


def _normalized_distance(home: Tuple[float, float], venue: Tuple[float, float]) -> float:
    """Euclidean coordinate distance scaled by the bounding-box diagonal."""
    diagonal = math.hypot(
        _LON_RANGE[1] - _LON_RANGE[0], _LAT_RANGE[1] - _LAT_RANGE[0]
    )
    distance = math.hypot(home[0] - venue[0], home[1] - venue[1])
    return min(distance / diagonal, 1.0)


class DamaiDataset:
    """The full real-data bundle: events, conflicts, users, features."""

    def __init__(
        self,
        events: Sequence[DamaiEvent],
        users: Sequence[DamaiUser],
        schema: FeatureSchema,
        conflicts: ConflictGraph,
    ) -> None:
        self.events = list(events)
        self.users = list(users)
        self.schema = schema
        self.conflicts = conflicts

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def dim(self) -> int:
        return self.schema.dim

    def event_record(self, event: DamaiEvent, user: DamaiUser) -> Dict[str, object]:
        """The schema record for one (event, user) pair."""
        return {
            "category": event.category,
            "subcategory_rank": str(
                CATEGORIES[event.category].index(event.subcategory) + 1
            ),
            "performers": event.performers,
            "country": event.country,
            "price_band": event.price_band,
            "day_of_week": event.day_of_week,
            "distance": _normalized_distance(user.home, event.venue),
        }

    def feature_matrix(self, user: DamaiUser) -> np.ndarray:
        """The fixed ``(50, 20)`` context matrix shown to ``user`` each round."""
        rows = [
            self.schema.encode_normalized(self.event_record(event, user))
            for event in self.events
        ]
        return np.vstack(rows)

    def feedback_vector(self, user: DamaiUser) -> np.ndarray:
        """Ground-truth feedback (0/1) per event id for ``user``."""
        return np.array(
            [1.0 if user.accepts(e.event_id) else 0.0 for e in self.events]
        )

    def platform_events(self) -> List[Event]:
        """The catalogue as platform :class:`Event` records (unlimited capacity).

        The paper's real-data replay repeats the same 50 events for
        thousands of rounds, so capacities are effectively unbounded.
        """
        return [
            Event(
                event_id=e.event_id,
                capacity=math.inf,
                title=e.title,
                category=e.category,
                subcategory=e.subcategory,
                tags=e.tags,
                attributes={
                    "country": e.country,
                    "price_band": e.price_band,
                    "day_of_week": e.day_of_week,
                    "day_index": e.day_index,
                    "start_hour": e.start_hour,
                },
            )
            for e in self.events
        ]


def _generate_events(rng: np.random.Generator) -> List[DamaiEvent]:
    category_names = list(CATEGORIES)
    events: List[DamaiEvent] = []
    for event_id in range(NUM_EVENTS):
        category = category_names[int(rng.integers(len(category_names)))]
        subcategory = CATEGORIES[category][
            int(rng.integers(len(CATEGORIES[category])))
        ]
        events.append(
            DamaiEvent(
                event_id=event_id,
                title=f"{subcategory.title()} {category} #{event_id}",
                category=category,
                subcategory=subcategory,
                performers=PERFORMERS[int(rng.integers(len(PERFORMERS)))],
                country=COUNTRIES[int(rng.integers(len(COUNTRIES)))],
                price_band=PRICE_BANDS[int(rng.integers(len(PRICE_BANDS)))],
                day_index=int(rng.integers(14)),
                start_hour=float(_START_HOURS[int(rng.integers(len(_START_HOURS)))]),
                venue=(
                    float(rng.uniform(*_LON_RANGE)),
                    float(rng.uniform(*_LAT_RANGE)),
                ),
            )
        )
    return events


def _conflict_pairs(events: Sequence[DamaiEvent]) -> List[Tuple[int, int]]:
    pairs: List[Tuple[int, int]] = []
    for i, first in enumerate(events):
        for second in events[i + 1 :]:
            if first.overlaps(second):
                pairs.append((first.event_id, second.event_id))
    return pairs


def _generate_users(
    rng: np.random.Generator,
    events: Sequence[DamaiEvent],
    schema: FeatureSchema,
) -> List[DamaiUser]:
    """Users with latent linear preferences and deterministic Yes sets.

    Each user scores events with a latent weight vector over the 20
    encoded dimensions (distance weighted negatively so closer events
    win) and says Yes to their top-``k`` events, ``k`` drawn uniformly
    from the paper's observed 7-26 range.
    """
    users: List[DamaiUser] = []
    slices = schema.field_slices()
    for user_id in range(NUM_USERS):
        home = (
            float(rng.uniform(*_LON_RANGE)),
            float(rng.uniform(*_LAT_RANGE)),
        )
        latent = rng.normal(0.0, 1.0, size=schema.dim)
        latent[slices["distance"]] = -abs(rng.normal(2.0, 0.5))
        # Score with a provisional user to obtain distance features.
        provisional = DamaiUser(
            user_id=user_id, home=home, yes_events=frozenset(), preferred_tags=frozenset()
        )
        dataset_view = DamaiDataset(
            events, [provisional], schema, ConflictGraph(len(events))
        )
        contexts = dataset_view.feature_matrix(provisional)
        scores = contexts @ latent
        target_yes = int(rng.integers(MIN_YES, MAX_YES + 1))
        top = np.argsort(-scores, kind="stable")[:target_yes]
        yes_events = frozenset(int(e) for e in top)
        tags = frozenset(
            tag for e in yes_events for tag in events[e].tags
        )
        users.append(
            DamaiUser(
                user_id=user_id,
                home=home,
                yes_events=yes_events,
                preferred_tags=tags,
            )
        )
    return users


def load_damai(seed: int = 2016) -> DamaiDataset:
    """Build the deterministic Damai-like dataset.

    The default seed fixes the catalogue this repository's EXPERIMENTS.md
    numbers refer to; any other seed yields a schema-identical variant.
    """
    rng = make_rng(seed)
    schema = build_schema()
    events = _generate_events(rng)
    conflicts = ConflictGraph(len(events), _conflict_pairs(events))
    users = _generate_users(rng, events, schema)
    return DamaiDataset(events, users, schema, conflicts)

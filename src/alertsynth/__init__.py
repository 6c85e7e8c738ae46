"""alertsynth: streaming synthesis of attack models from IDS alerts.

Alerts are parsed from Suricata-style JSON lines, encoded as categorical
actions, grouped into per-stream episodes, and summarized online into a
small evolving set of statistical attack models.

The scenario generator and scorer live in alertsynth.synth_harness, which
the package root does not import, so that an engine process does not load
what only scenario tooling needs.
"""

from .action_space import (Action, ConfigError, MappingTables, WeightConfig,
                           bin_elapsed, load_mappings, map_ais, map_service)
from .aggregation import Aggregate, build_aggregate
from .ingest import (Alert, IngestStats, MissingField, ParseError, SourceError,
                     SourceSpec, open_source, parse_alert_line)
from .stream_tracker import StreamState, StreamTracker
from .synthesis import (Admission, AttackModel, ModelSet, SynthConfig,
                        admission_bound, create_model, cross_entropy, decay,
                        jsd, jsd_component, kl_divergence, model_distance,
                        smoothed_pmf)

__version__ = "0.1.0"

__all__ = [
    "Action", "Admission", "Aggregate", "Alert", "AttackModel",
    "ConfigError", "Engine", "IngestStats", "MappingTables", "MissingField",
    "ModelSet", "ParseError", "RunConfig", "SourceError",
    "SourceSpec", "StreamState", "StreamTracker", "SynthConfig", "WeightConfig",
    "admission_bound", "bin_elapsed", "build_aggregate", "create_model",
    "cross_entropy", "decay", "jsd", "jsd_component",
    "kl_divergence", "load_mappings", "map_ais",
    "map_service", "model_distance", "open_source", "parse_alert_line", "run",
    "smoothed_pmf",
]

# served on first use (PEP 562), so that `python -m alertsynth.export_cli`
# runs the one copy of that module
_ENGINE_NAMES = ("Engine", "RunConfig", "run")


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        from . import export_cli
        return getattr(export_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

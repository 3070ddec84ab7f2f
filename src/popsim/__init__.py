"""popsim: population-protocol simulation, influence tracking, exact analysis.

The public names are looked up in their modules at first use (PEP 562), so
``import popsim`` loads none of those modules, and each command loads only
the ones it runs.
"""

__version__ = "0.1.0"

# public name -> the popsim module that defines it
_EXPORTS = {
    "CATALOG": "protocols",
    "DEMO_SCHEDULE_N5": "influence",
    "FOLLOWER": "core",
    "Interaction": "core",
    "InfluencerTable": "influence",
    "InteractionLog": "influence",
    "LEADER": "core",
    "Protocol": "core",
    "ProtocolLoadError": "protocols",
    "ScheduleRecorder": "influence",
    "Splitmix64": "rng",
    "TrialRecord": "core",
    "apply_interaction": "core",
    "backward_sets": "influence",
    "backward_step": "influence",
    "configuration_digest": "core",
    "demo_log": "influence",
    "derive_seed": "rng",
    "first_exceed_time": "influence",
    "forward_sets": "influence",
    "layered_edges": "influence",
    "leave_init": "protocols",
    "load_protocol": "protocols",
    "make_protocol": "protocols",
    "mix64": "rng",
    "one_way_epidemic": "protocols",
    "output_vector": "core",
    "pairwise_elimination": "protocols",
    "protocol_from_dict": "protocols",
    "run_trial": "core",
    "sample_interaction": "core",
    "sources_reaching": "influence",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not importlib.import_module, whose imports -X importtime omits
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value

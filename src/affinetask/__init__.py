"""Chromatic subdivisions, fair adversaries, affine tasks, and an
exhaustive checker for the two-round snapshot protocol that solves them."""

from .adversary import (Adversary, AdversaryError, AgreementFunction,
                        AgreementFunctionError, FairnessVerdict,
                        UnfairAdversaryError,
                        adversary_from_dict, adversary_to_dict,
                        agreement_function, alpha_to_dict, check_fairness,
                        classify, csize, enumerate_adversaries,
                        is_superset_closed, is_symmetric, make_k_of,
                        make_superset_closed, make_symmetric,
                        make_t_resilient, require_fair,
                        setcon, verify_fair_subtraction)
from .affine import (AffineTask, build_r_a, concurrency_levels,
                     contention_simplices, critical_simplices, task_to_dict,
                     verify_cs_distribution, verify_single_carrier)
from .complexes import (ChromaticComplex, ComplexError, Simplex, Vertex,
                        closure, complex_from_dict, complex_to_dict)
from .leader import LeaderError, LeaderMap, verify_leader
from .render import render_complex_svg, render_off
from .reports import VerificationReport
from .simulate import (Exploration, ProtocolModel, SimulationError,
                       StateCapExceeded, Terminals, check_liveness,
                       check_model, check_safety, events_from_jsonable,
                       events_to_jsonable, finish_predicate, replay,
                       state_cap_from_env, valid_participations,
                       wait_predicate)
from .subdivision import (chr2_complex, chr_complex, chr_vertex, geometry,
                          ordered_set_partitions, partition_to_facet,
                          standard_simplex, two_round_facet)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

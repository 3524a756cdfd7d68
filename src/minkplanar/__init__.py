"""Tools for building and checking drawings with bounded crossing load."""

from .errors import GeometryError, InputError, LayoutError, MinkplanarError
from .graphs import AnchoredGraph, Graph, t_amplify
from .drawings import (
    Crossing,
    CrossingProfile,
    Drawing,
    Verdict,
    crossing_profile,
    is_k_planar,
    is_min_k_planar,
    is_simple,
    mirror,
    restrict,
    validate,
)
from .constructions import build_G2, build_Gk
from .frames import (
    FrameBundle,
    FrameParams,
    build_frame,
    compose,
    separation_property_check,
)
from .geometry import Scene, on_circle, scene_to_drawing
from .layout import Layout, audit_layout, to_svg, tutte_layout
from .jsonio import (
    RunReport,
    drawing_from_json,
    drawing_to_json,
    graph_from_json,
    graph_to_json,
    outcome_from_json,
    outcome_to_json,
)
from .obstructions import (
    PlanarExtraction,
    biclique_obstruction,
    extract_planar_amplification,
)
from .simplify import simplify_min1, swap_at, violating_pairs
from .sampling import random_anchored_graph, random_min1_drawing
from .search import (
    Budget,
    SearchOutcome,
    SearchStats,
    Status,
    search_anchored,
    verify_certificate,
)
from .oracle import brute_oracle

__version__ = "0.1.0"

__all__ = [
    "AnchoredGraph",
    "Budget",
    "Crossing",
    "CrossingProfile",
    "Drawing",
    "FrameBundle",
    "FrameParams",
    "GeometryError",
    "Graph",
    "InputError",
    "Layout",
    "LayoutError",
    "MinkplanarError",
    "PlanarExtraction",
    "RunReport",
    "Scene",
    "SearchOutcome",
    "SearchStats",
    "Status",
    "Verdict",
    "audit_layout",
    "biclique_obstruction",
    "brute_oracle",
    "build_G2",
    "build_Gk",
    "build_frame",
    "compose",
    "crossing_profile",
    "drawing_from_json",
    "drawing_to_json",
    "extract_planar_amplification",
    "graph_from_json",
    "graph_to_json",
    "is_k_planar",
    "is_min_k_planar",
    "is_simple",
    "mirror",
    "on_circle",
    "outcome_from_json",
    "outcome_to_json",
    "random_anchored_graph",
    "random_min1_drawing",
    "restrict",
    "scene_to_drawing",
    "search_anchored",
    "separation_property_check",
    "simplify_min1",
    "swap_at",
    "t_amplify",
    "to_svg",
    "tutte_layout",
    "validate",
    "verify_certificate",
]

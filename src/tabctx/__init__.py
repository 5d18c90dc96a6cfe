"""Retrieval of supporting context rows for tabular in-context prediction,
plus the benchmark harness around it."""

from .dataset import (ColumnSchema, Dataset, SplitAssignment, load_dataset, load_split_file, make_split,
                      save_schema, save_split_file, save_table)
from .importance import pearson_importance, pps_importance
from .metrics import PowerLawFit, auroc, auroc_binary, fit_power_law, minmax_normalize, nmae
from .normalize import ColumnStats, apply_array, fit_stats
from .predictors import (EndpointConfig, LlmClient, PredictionRecord, PromptTemplate, ensemble,
                         fit_prompt, ingest_predictions, knn_predict)
from .retrieval import ContextPool, RetrievalConfig, RetrievedContext, build_pool, retrieve, retrieve_random
from .synthgen import BoundaryGrid, ToySpec, boundary_grid, generate_scaling_pools, generate_toy, write_grid

__version__ = "0.1.0"

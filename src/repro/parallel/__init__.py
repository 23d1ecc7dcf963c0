"""Process-pool map for grid search and cross-validation.

The one parallel path in the package:
:class:`~repro.ml.model_selection.GridSearchCV` and
:func:`~repro.ml.model_selection.cross_val_score` fan independent
(candidate, fold) fits out over :func:`parallel_map`.  Every fit is a pure
function of its parameters and fold indices, so scores do not depend on
the job count.  With one effective job the map runs inline, so a 1-core
machine runs the same code path serially.
"""

from repro.parallel.pool import effective_n_jobs, parallel_map

__all__ = ["parallel_map", "effective_n_jobs"]

"""Decision forests that split directly on categorical-set features.

Text becomes a set of vocabulary term ids per example; tree nodes may then
test whether that set intersects a learned term mask, next to the usual
threshold and category-set conditions. Trained forests serialize to JSON
and compile into a bitmask evaluator that scores all node conditions at
once and reads each tree's active leaf off the surviving leaf mask.
"""

from .conditions import CategoryIn, NumericalGE, SetIntersects, SplitCondition
from .dataset import (
    DataError,
    Dataset,
    Feature,
    FeatureType,
    MISSING_CATEGORY,
    SetColumnIndex,
    Vocabulary,
    build_vocabulary,
    dataset_from_token_sets,
    encode_tokens,
    load_csv,
    load_csv_with_schema,
    load_labeled_text,
    tokenize,
)
from .evaluation import (
    BenchmarkResult,
    EvaluationReport,
    MethodSpec,
    StructureStats,
    auc,
    benchmark_inference,
    cross_validate,
    fold_indices,
    headroom_reduction,
    sampling_rate_sweep,
    structure_stats,
)
from .inference import (
    CompiledForest,
    compile_forest,
    compiled_leaf_indices,
    predict_compiled,
    predict_dataset,
    predict_top_down,
)
from .model import (
    DecisionForest,
    Internal,
    Leaf,
    Tree,
    forest_from_json,
    forest_to_json,
    load_forest,
    predict,
    save_forest,
)
from .splits import (
    SplitCandidate,
    find_categorical_split,
    find_numerical_split,
    find_set_mask_split,
)
from .synthetic import noise_corpus, planted_keyword_corpus, write_corpus_tsv
from .training import (
    TrainConfig,
    grow_tree,
    log_loss,
    log_loss_gradient,
    train,
    train_mart,
    train_random_forest,
)
from .transforms import (
    BagOfWords,
    MaxHash,
    OneHot,
    TargetMean,
    TargetMeanTable,
    TransformChain,
    fit_target_mean,
    hash64,
    make_chain,
)

__version__ = "0.1.0"

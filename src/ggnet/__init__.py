"""Glance-and-gaze human-object-interaction detector, built on a hand-rolled
reverse-mode tensor core. See README.md for the tour."""

from .decoder import HoiTriplet, assemble_triplets, match_point, select_candidates
from .evaluator import EvalResult, average_precision, evaluate, iou
from .gradcheck import finite_diff_check, standard_checks
from .losses import (HoiAnnotation, HoiCategoryTable, build_mask, centernet_focal,
                     detection_losses, gaussian_radius, hna_loss, matching_loss,
                     splat_gaussian, total_loss)
from .model import (ActPointField, ForwardOutputs, GGNet, ModelConfig, apm_head,
                    detection_head, forward_infer, forward_train, gaze_step1,
                    gaze_step2, glance_step, toy_backbone)
from .ops import (ConvParams, bilinear_sample, conv2d, deform_aggregate, maxpool_nms,
                  relu, sigmoid, topk)
from .optim import AdamState, adam_step
from .synth import SceneSpec, generate_scene, make_dataset
from .tensor import ConfigError, ShapeError, Tape, Tensor, load_ggt, save_ggt, tape
from .train import TrainConfig, train
from .viz import visualize

__version__ = "0.1.0"

"""One frozen quantized compute graph, many LoRA adapters bound at runtime."""

from .errors import (
    BindError, CalibrationError, CoverageError, CycleError, DivergenceError,
    FormatError, GraphError, ModelSpecError, OneGraphError, PackError,
    RangeError, ShapeError,
)
from .graph import (
    Graph, GraphInput, LoRAAdapter, LoRAEntry, ModelBundle, Node,
    attach_lora_static, dump_graph, execute_fp, run_bundle, run_graph,
    topo_sort, validate, validate_bundle,
)
from .qparams import QuantParams, compute_quant_params, dequantize_array, fake_quant, quantize_array
from .quant import (
    Observer, Policy, QuantProfile, calibrate, check_coverage,
    execute_quantsim, profile_from_text, profile_to_text,
)
from .rng import Rng
from .sensitivity import (
    QSSReport, UNIFIED, build_shared_profile, js_divergence, qss,
    qss_report, select_anchor, unified_profile,
)
from .distill import DistillConfig, DistillTrace, align_adapters, finetune_adapter, recon_loss
from .compiler import (
    CompiledModel, LoRASlotDescriptor, constant_fold,
    dead_code_eliminate, freeze, load_compiled, materialize_quantsim,
    optimize_for_freeze, pack_lora, rewrite_lora_as_input, scale_fold,
    unpack_lora,
)
from .runtime import (
    KPIReport, MemoryPlan, Session, bind_lora, infer, kpi, load_model,
    memory_accounting, plan_memory, swap_benchmark,
)
from .tensor import Histogram, activation, histogram, matmul, psnr, read_qtns, write_qtns

__version__ = "0.1.0"

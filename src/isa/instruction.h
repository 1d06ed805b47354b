/**
 * @file
 * The µRISC instruction set.
 *
 * µRISC is a small, fixed-width (32-bit) load/store ISA in the MIPS
 * mold, rich enough to express the control-flow structures the trace
 * cache cares about: conditional branches, unconditional jumps, calls,
 * returns, indirect jumps, and serializing traps.
 *
 * Encoding formats (bit 31 is the MSB):
 *   R-type:  [31:26] op  [25:21] rd   [20:16] rs1  [15:11] rs2  [10:0] 0
 *   I-type:  [31:26] op  [25:21] rd   [20:16] rs1  [15:0]  imm16 (signed)
 *   B-type:  [31:26] op  [25:21] rs1  [20:16] rs2  [15:0]  imm16 (signed,
 *            in instruction-word units, PC-relative to the branch)
 *   J-type:  [31:26] op  [25:0]  imm26 (signed, instruction-word units)
 *   JR/RET:  [31:26] op  [20:16] rs1
 *
 * Register conventions: r0 is hardwired zero, r1 is the link register
 * (ra), r2 is the stack pointer by convention.
 */

#ifndef TCSIM_ISA_INSTRUCTION_H
#define TCSIM_ISA_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "common/log.h"
#include "common/types.h"

namespace tcsim::isa
{

/** Number of architectural integer registers. */
constexpr unsigned kNumArchRegs = 32;

/** The hardwired-zero register. */
constexpr RegIndex kRegZero = 0;

/** The link register written by CALL and read by RET. */
constexpr RegIndex kRegRa = 1;

/** Size of one instruction in bytes. */
constexpr unsigned kInstBytes = 4;

/** All µRISC opcodes. */
enum class Opcode : std::uint8_t
{
    // R-type ALU.
    Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    // I-type ALU.
    Addi, Andi, Ori, Xori, Slli, Srli, Slti, Lui,
    // Memory: Ld rd, imm(rs1); St rs2, imm(rs1).
    Ld, St,
    // B-type conditional branches: B?? rs1, rs2, imm.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    // J-type: J imm; Call imm (writes ra).
    J, Call,
    // Indirect: Jr rs1; Ret (Jr ra).
    Jr, Ret,
    // System.
    Trap, Halt, Nop,

    NumOpcodes
};

/** Encoding format families (see the file comment). */
enum class Format : std::uint8_t { R, I, B, J, JR, None };

/** @return the encoding format of @p op. */
inline Format
formatOf(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::And: case Opcode::Or:
      case Opcode::Xor: case Opcode::Sll: case Opcode::Srl:
      case Opcode::Sra: case Opcode::Slt: case Opcode::Sltu:
        return Format::R;
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slli: case Opcode::Srli:
      case Opcode::Slti: case Opcode::Lui:
      case Opcode::Ld: case Opcode::St:
        return Format::I;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Bltu: case Opcode::Bgeu:
        return Format::B;
      case Opcode::J: case Opcode::Call:
        return Format::J;
      case Opcode::Jr: case Opcode::Ret:
        return Format::JR;
      case Opcode::Trap: case Opcode::Halt: case Opcode::Nop:
        return Format::None;
      default:
        panic("formatOf: bad opcode %u", static_cast<unsigned>(op));
    }
}

/** Coarse classification used for functional-unit latencies. */
enum class InstClass : std::uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    Load,
    Store,
    Control,
    Serialize,
};

/** A decoded µRISC instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /**
     * Immediate. For branches and jumps this is the signed displacement
     * in instruction words relative to the instruction's own PC.
     */
    std::int32_t imm = 0;

    bool operator==(const Instruction &other) const = default;
};

/** @return the machine-word encoding of @p inst. */
std::uint32_t encode(const Instruction &inst);

/** @return the decoded form of machine word @p word. */
Instruction decode(std::uint32_t word);

/** @return the mnemonic for @p op. */
const char *opcodeName(Opcode op);

/** @return a human-readable disassembly of @p inst at address @p pc. */
std::string disassemble(const Instruction &inst, Addr pc = 0);

/** @return true for conditional branches (Beq..Bgeu). */
constexpr bool
isCondBranch(Opcode op)
{
    return op >= Opcode::Beq && op <= Opcode::Bgeu;
}

/** @return true for direct unconditional control (J, Call). */
constexpr bool
isUncondDirect(Opcode op)
{
    return op == Opcode::J || op == Opcode::Call;
}

/** @return true for subroutine calls. */
constexpr bool
isCall(Opcode op)
{
    return op == Opcode::Call;
}

/** @return true for subroutine returns. */
constexpr bool
isReturn(Opcode op)
{
    return op == Opcode::Ret;
}

/** @return true for indirect jumps that are not returns. */
constexpr bool
isIndirectJump(Opcode op)
{
    return op == Opcode::Jr;
}

/** @return true for serializing instructions. */
constexpr bool
isSerializing(Opcode op)
{
    return op == Opcode::Trap || op == Opcode::Halt;
}

/** @return true for any control-flow instruction. */
constexpr bool
isControl(Opcode op)
{
    return isCondBranch(op) || isUncondDirect(op) || isReturn(op) ||
           isIndirectJump(op) || isSerializing(op);
}

/** @return true for loads. */
constexpr bool
isLoad(Opcode op)
{
    return op == Opcode::Ld;
}

/** @return true for stores. */
constexpr bool
isStore(Opcode op)
{
    return op == Opcode::St;
}

/** @return true for any memory operation. */
constexpr bool
isMem(Opcode op)
{
    return isLoad(op) || isStore(op);
}

/** @return the latency/issue classification of @p op. */
inline InstClass
instClass(Opcode op)
{
    switch (op) {
      case Opcode::Mul:
        return InstClass::IntMult;
      case Opcode::Div:
        return InstClass::IntDiv;
      case Opcode::Ld:
        return InstClass::Load;
      case Opcode::St:
        return InstClass::Store;
      case Opcode::Trap:
      case Opcode::Halt:
        return InstClass::Serialize;
      default:
        return isControl(op) ? InstClass::Control : InstClass::IntAlu;
    }
}

/** @return true if the instruction writes its destination register. */
inline bool
writesReg(const Instruction &inst)
{
    if (inst.rd == kRegZero)
        return false;
    switch (formatOf(inst.op)) {
      case Format::R:
        return true;
      case Format::I:
        return inst.op != Opcode::St;
      case Format::J:
        return inst.op == Opcode::Call;
      default:
        return false;
    }
}

/** @return true if the instruction reads rs1. */
inline bool
readsRs1(const Instruction &inst)
{
    switch (formatOf(inst.op)) {
      case Format::R:
      case Format::B:
      case Format::JR:
        return true;
      case Format::I:
        return inst.op != Opcode::Lui;
      default:
        return false;
    }
}

/** @return true if the instruction reads rs2. */
inline bool
readsRs2(const Instruction &inst)
{
    switch (formatOf(inst.op)) {
      case Format::R:
      case Format::B:
        return true;
      case Format::I:
        return inst.op == Opcode::St;
      default:
        return false;
    }
}

/**
 * @return the target address of a direct control instruction (branch,
 * J, Call) located at @p pc. Must not be called for indirect control.
 */
Addr directTarget(const Instruction &inst, Addr pc);

} // namespace tcsim::isa

#endif // TCSIM_ISA_INSTRUCTION_H
